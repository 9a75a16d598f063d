//go:build !mutate

package faster

// Mutation switches for the linearizability gate (see
// internal/faster/mutation_gate_test.go). Normal builds compile with
// mutationsEnabled == false, so every mutated branch is dead code the
// compiler removes; the seeded-bug variants exist only under -tags mutate.
const mutationsEnabled = false

func mutTornWrite() bool        { return false }
func mutDoubleRMW() bool        { return false }
func mutSkipSerialFsync() bool  { return false }
func mutDroppedReenqueue() bool { return false }
func mutRouteStale() bool       { return false }
func mutSkipShardFsync() bool   { return false }
func mutCacheInval() bool       { return false }
func mutSkipLogSync() bool      { return false }

// tornAddU64 and tornSessionPayload are never reachable when
// mutationsEnabled is false; the stubs keep the !mutate build compiling.
func tornAddU64(p *uint64, delta uint64) { _ = p; _ = delta }

func tornSessionPayload(payload []byte) []byte { return payload }

func tearShardMeta(path string) { _ = path }
