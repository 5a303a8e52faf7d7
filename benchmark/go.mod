module aamgo/benchmark

go 1.24

require aamgo v0.0.0

replace aamgo => ../
