//go:build race

package structrev

// raceEnabled lets tests scale work down under the race detector's ~10x
// slowdown (same pattern as internal/accel and internal/serve).
const raceEnabled = true
