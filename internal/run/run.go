// Package run constructs machines by backend name, decoupling algorithm
// and benchmark code from the concrete backend packages.
package run

import (
	"fmt"

	"aamgo/internal/exec"
	"aamgo/internal/native"
	"aamgo/internal/sim"
)

// Backend names.
const (
	Sim    = "sim"
	Native = "native"
)

// Check returns an error unless New knows backend ("" is Sim).
func Check(backend string) error {
	switch backend {
	case Sim, Native, "":
		return nil
	}
	return fmt.Errorf("unknown runtime %q (want %q or %q)", backend, Sim, Native)
}

// New returns a fresh single-use machine of the given backend; an unknown
// one panics with Check's error.
func New(backend string, cfg exec.Config) exec.Machine {
	if err := Check(backend); err != nil {
		panic("run: " + err.Error())
	}
	if backend == Native {
		return native.New(cfg)
	}
	return sim.New(cfg)
}
