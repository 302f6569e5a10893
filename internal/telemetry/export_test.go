package telemetry

// Test-only hooks for package telemetry_test.
var (
	SignalsReference = signalsReference
	RandomSnapshot   = randomSnapshot
)
