package faultinject

import (
	"context"

	"repro/internal/state"
)

// WALHooks builds state.WALHooks wired to an injector: writePoint is
// evaluated on every flushed frame buffer (KindFail drops the whole
// write, KindTorn lands KeepBytes of it first — the on-disk signature of
// a crash mid-write), syncPoint on every fsync. This is the layer the
// differential failover tests thread under the primary's WAL writer.
func WALHooks(in *Injector, writePoint, syncPoint string) *state.WALHooks {
	return &state.WALHooks{
		Write: func(p []byte, real func([]byte) (int, error)) (int, error) {
			f := in.Eval(writePoint)
			if f == nil {
				return real(p)
			}
			if f.Kind == KindTorn {
				keep := f.KeepBytes
				if keep > len(p) {
					keep = len(p)
				}
				real(p[:keep]) //nolint:errcheck // the injected error supersedes
				return keep, f.Err
			}
			return 0, f.Err
		},
		Sync: func(real func() error) error {
			f := in.Eval(syncPoint)
			if f == nil {
				return real()
			}
			if f.Kind == KindDelay {
				if err := f.Sleep(context.Background()); err != nil {
					return err
				}
				return real()
			}
			return f.Err
		},
	}
}
