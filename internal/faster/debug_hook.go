package faster

import (
	"repro/internal/epoch"
	"repro/internal/metrics"
)

// debugAssert reports whether internal invariant assertions are enabled
// (the process-wide FASTER_DEBUG_ASSERT switch in internal/metrics,
// shared with the hlog layer; flip it from tests with
// metrics.SetDebugAsserts).
func debugAssert() bool { return metrics.DebugAsserts() }

// debugReap observes every io-worker reap pass (tests only).
var debugReap func()

// debugFillCAS runs between a read-cache fill's record write and its
// index CAS, with the filler's guard (tests only).
var debugFillCAS func(g *epoch.Guard)
