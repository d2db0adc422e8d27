//go:build !amd64 || purego

package tensor

import "testing"

// eachTier runs fn once: the portable loops are the only tier.
func eachTier(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run(Kernels(), fn)
}

// benchTiers runs fn as name/Kernels().
func benchTiers(b *testing.B, name string, fn func(b *testing.B)) {
	b.Run(name+"/"+Kernels(), fn)
}
