package lib

import "testing"

// A package's own test does not keep Unused reached.
func TestUnused(t *testing.T) {
	if Unused() != 0 {
		t.Fatal("Unused")
	}
}
