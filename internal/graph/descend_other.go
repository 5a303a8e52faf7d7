//go:build !amd64

package graph

// descendWords is the amd64 kernel of the descent; elsewhere it reads nothing
// and descendBlock takes every value.
func descendWords(vals, out []uint64, second uint64, th *[4]uint64) (n int, next uint64) {
	return 0, second
}

func hasDescendWords() bool { return false }
