//go:build mutate

package faster

import "testing"

// TestMutationGateSkipLogSync seeds a checkpoint that writes its meta
// without syncing the log's device: TestCheckpointSyncsLogBeforeMeta's
// sync spy must see no Sync between the flush to T2 and the meta write.
func TestMutationGateSkipLogSync(t *testing.T) {
	DisableMutations()
	if msg := checkpointSyncOrder(t); msg != "" {
		t.Fatalf("baseline (seed off): %s", msg)
	}
	EnableMutation("skip-log-sync")
	defer DisableMutations()
	if msg := checkpointSyncOrder(t); msg == "" {
		t.Fatal("seeded bug NOT detected: the sync spy saw a Sync before the meta with the log sync skipped — the gate lost its teeth")
	}
	t.Log("seeded bug detected: no device Sync between the flush to T2 and the meta write")
}
