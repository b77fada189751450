package desim

import "testing"

// Fingerprint exposes fingerprint to the external test package, which
// can attach the real internal/obs collector.
func Fingerprint(t *testing.T, r *Result) []byte { return fingerprint(t, r) }
