package faster

import "repro/internal/metrics"

// debugAssert reports whether internal invariant assertions are enabled
// (the process-wide FASTER_DEBUG_ASSERT switch in internal/metrics,
// shared with the hlog layer; flip it from tests with
// metrics.SetDebugAsserts).
func debugAssert() bool { return metrics.DebugAsserts() }

// debugReap observes every io-worker reap pass (tests only).
var debugReap func()
