//go:build amd64 && !purego

package tensor

import "testing"

// hostAVX512 is the AVX-512 dispatch as detected, before any test
// switches it.
var hostAVX512 = useAVX512

// eachTier runs fn once per vector tier of AccumRows and CosRow:
// "avx512" with the AVX-512 tier on, skipped with a logged reason on a
// host without it, then "avx2" with it off. useAVX512 is restored in
// t.Cleanup. The package's tests run one at a time, so nothing else
// reads the switch meanwhile.
func eachTier(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	tier := func(name string, on bool) {
		t.Run(name, func(t *testing.T) {
			if on && !hostAVX512 {
				t.Skip("this CPU or OS runs no AVX-512F: only the avx2 tier is exercised")
			}
			prev := useAVX512
			t.Cleanup(func() { useAVX512 = prev })
			useAVX512 = on
			fn(t)
		})
	}
	tier("avx512", true)
	tier("avx2", false)
}

// benchTiers runs fn as name/Kernels() and, where that is the AVX-512
// tier, again as name/avx2 with it off, so one run prices the tier.
func benchTiers(b *testing.B, name string, fn func(b *testing.B)) {
	b.Run(name+"/"+Kernels(), fn)
	if !useAVX512 {
		return
	}
	b.Run(name+"/avx2", func(b *testing.B) {
		useAVX512 = false
		defer func() { useAVX512 = true }()
		fn(b)
	})
}
