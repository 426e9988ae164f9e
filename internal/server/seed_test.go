package server

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// TestDefaultSeedDerivedFromName pins the fix for the shared-session-seed
// bug: sessions created without an explicit seed must get one derived
// from their name (distinct sessions explore independently), not the
// shared core default that used to give every session Seed 1.
func TestDefaultSeedDerivedFromName(t *testing.T) {
	sv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	seeds := make(map[string]int64)
	for _, name := range []string{"alpha", "beta"} {
		sess, err := sv.CreateSession(SessionConfig{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		got := exportTuner(sess).TunerOptions().Seed
		if got != NameSeed(name) {
			t.Fatalf("session %q runs with seed %d, want NameSeed = %d", name, got, NameSeed(name))
		}
		if got == core.DefaultOptions().Seed {
			t.Fatalf("session %q fell back to the shared core default seed %d", name, got)
		}
		seeds[name] = got
	}
	if seeds["alpha"] == seeds["beta"] {
		t.Fatalf("distinct sessions share seed %d — the bug this fixes", seeds["alpha"])
	}

	// An explicit per-session seed always wins over derivation.
	sess, err := sv.CreateSession(SessionConfig{Name: "pinned", Options: core.Options{Seed: 1234}})
	if err != nil {
		t.Fatal(err)
	}
	if got := exportTuner(sess).TunerOptions().Seed; got != 1234 {
		t.Fatalf("explicit seed overridden: got %d, want 1234", got)
	}
}

// TestSeedPersistedAcrossRecovery is the compat test: a session that ran
// with the old shared default (Seed 1 persisted in its snapshot) must
// recover with that exact seed — re-deriving from the name would silently
// change the partition-randomness stream of every pre-fix session.
func TestSeedPersistedAcrossRecovery(t *testing.T) {
	cat, _ := datagen.Build()
	dir := filepath.Join(t.TempDir(), "old")
	cfg := testSessionConfig("old") // DefaultOptions: the pre-fix Seed 1
	if cfg.Options.Seed != 1 {
		t.Fatalf("test premise broken: DefaultOptions seed = %d", cfg.Options.Seed)
	}
	sess, err := CreateSession(dir, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := OpenSession(dir, cat, SessionRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := exportTuner(recovered).TunerOptions().Seed; got != 1 {
		t.Fatalf("recovered session reseeded to %d, want the persisted 1", got)
	}
	if NameSeed("old") == 1 {
		t.Fatalf("test premise broken: NameSeed(\"old\") == 1 cannot distinguish the paths")
	}

	// And a name-derived seed survives recovery the same way.
	dir2 := filepath.Join(t.TempDir(), "derived")
	cfg2 := testSessionConfig("derived")
	cfg2.Options.Seed = 0 // take the name-derived default
	sess2, err := CreateSession(dir2, cat, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.Close(); err != nil {
		t.Fatal(err)
	}
	recovered2, err := OpenSession(dir2, cat, SessionRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered2.Close()
	if got := exportTuner(recovered2).TunerOptions().Seed; got != NameSeed("derived") {
		t.Fatalf("recovered seed %d, want NameSeed(\"derived\") = %d", got, NameSeed("derived"))
	}
}

// TestServerSessionDefaultComposition pins the single-source-of-truth
// defaulting order after removing the duplicated seed path from
// Server.CreateSession: session-level knobs win, zero knobs take the
// server's defaults, still-zero knobs take the session rules' documented
// defaults — and the server's DefaultOptions.Seed is never consulted.
func TestServerSessionDefaultComposition(t *testing.T) {
	sv, err := New(Config{
		DataDir:         t.TempDir(),
		DefaultOptions:  core.Options{IdxCnt: 24, Seed: 777}, // Seed deliberately ignored
		QueueDepth:      33,
		CheckpointEvery: 44,
		Batch:           16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	// Session overrides beat server defaults; zeros inherit them. The
	// runtime knobs come from the server alone.
	sess, err := sv.CreateSession(SessionConfig{
		Name:    "compose",
		Options: core.Options{StateCnt: 321},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Status()
	opts := exportTuner(sess).TunerOptions()
	switch {
	case opts.IdxCnt != 24:
		t.Fatalf("IdxCnt = %d, want the server default 24", opts.IdxCnt)
	case opts.StateCnt != 321:
		t.Fatalf("StateCnt = %d, want the session override 321", opts.StateCnt)
	case opts.HistSize != core.DefaultOptions().HistSize:
		t.Fatalf("HistSize = %d, want the core default", opts.HistSize)
	case opts.Seed != NameSeed("compose"):
		t.Fatalf("Seed = %d, want NameSeed — the server-level 777 must never apply", opts.Seed)
	case st.QueueDepth != 33:
		t.Fatalf("QueueDepth = %d, want the server default 33", st.QueueDepth)
	case st.Batch != 16:
		t.Fatalf("Batch = %d, want the server's 16", st.Batch)
	}
}
