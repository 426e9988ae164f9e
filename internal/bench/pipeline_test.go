package bench

import "testing"

// TestRunPipelineSmall exercises the ingest-throughput bench end to end
// at a tiny scale: all four modes run, every mode ingests the full slice,
// and — the differential guarantee — the four trajectories' total work is
// bit-identical, batching included.
func TestRunPipelineSmall(t *testing.T) {
	p, err := RunPipeline(PipelineOptions{
		DataDir:     t.TempDir(),
		Warmup:      24,
		Statements:  48,
		ClientBatch: 8,
		Batch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Modes) != 4 {
		t.Fatalf("ran %d modes, want 4", len(p.Modes))
	}
	if !p.TotalWorkIdentical {
		for _, m := range p.Modes {
			t.Logf("%s: total work %v", m.Name, m.TotalWork)
		}
		t.Fatalf("total work diverged across ingest modes")
	}
	for _, m := range p.Modes {
		if m.StmtsPerSec <= 0 || m.WallMS <= 0 {
			t.Fatalf("mode %s measured nothing: %+v", m.Name, m)
		}
	}
	batched := p.Modes[2]
	if batched.GroupCommits == 0 || batched.GroupCommitRecords <= batched.GroupCommits {
		t.Fatalf("batched mode did not group-commit: %d commits / %d records",
			batched.GroupCommits, batched.GroupCommitRecords)
	}
}
