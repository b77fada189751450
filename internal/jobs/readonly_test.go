package jobs

// The pool half of the disk-full drill: an accepted record that hits
// ENOSPC rolls its submission back, whether it arrived alone or in a
// batch, and the journal's read-only mode refuses durable work while
// synchronous work keeps computing.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"starperf/internal/fsx"
	"starperf/internal/journal"
)

func TestENOSPCRollsBackSingleAndBatch(t *testing.T) {
	fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 1})
	j, _, err := journal.Open(journal.Options{Dir: t.TempDir(), FS: fa})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolConfig{Workers: 1, Journal: j})
	defer func() {
		p.Shutdown(context.Background())
		j.Close()
	}()
	fn := func(ctx context.Context) (any, error) { return "ok", nil }
	before := p.Stats()
	// refused checks a rolled-back submission left no trace: no
	// counter moved and no id is pollable.
	refused := func(what string, ids ...string) {
		t.Helper()
		if got := p.Stats(); got.Submitted != before.Submitted || got.Queued != before.Queued {
			t.Fatalf("%s: stats %+v, want Submitted/Queued as before %+v", what, got, before)
		}
		for _, id := range ids {
			if _, ok := p.Get(id); ok {
				t.Fatalf("%s: rolled-back job %s still pollable", what, id)
			}
		}
	}

	// A batch whose accepted records hit the full disk: every item is
	// refused with ErrReadOnly and rolled back.
	fa.SetFull(true)
	res := p.SubmitBatch([]BatchItem{
		{ID: "batch/a", Meta: crashMeta(1), Fn: fn},
		{ID: "batch/b", Meta: crashMeta(2), Fn: fn},
	})
	for i, r := range res {
		if !errors.Is(r.Err, ErrReadOnly) || r.Job != nil {
			t.Fatalf("batch item %d: %+v, want ErrReadOnly", i, r)
		}
	}
	refused("batch", "batch/a", "batch/b")
	if !p.ReadOnly() {
		t.Fatal("pool not read-only after an ENOSPC accept")
	}

	// Space returns and a probe proves it; the disk fills again and a
	// single submit's accepted record hits it the same way.
	fa.SetFull(false)
	if err := j.Probe(); err != nil || p.ReadOnly() {
		t.Fatalf("probe after freeing space: %v (read-only %v)", err, p.ReadOnly())
	}
	fa.SetFull(true)
	if job, err := p.SubmitMeta("single/c", crashMeta(3), fn); !errors.Is(err, ErrReadOnly) || job != nil {
		t.Fatalf("single submit on a full disk: %v, %v, want ErrReadOnly", job, err)
	}
	refused("single", "single/c")

	// Read-only now: durable submits are refused up front, while the
	// synchronous path still computes.
	if _, err := p.SubmitMeta("single/d", crashMeta(4), fn); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only single submit: %v, want ErrReadOnly", err)
	}
	if r := p.SubmitBatch([]BatchItem{{ID: "batch/e", Meta: crashMeta(5), Fn: fn}}); !errors.Is(r[0].Err, ErrReadOnly) {
		t.Fatalf("read-only batch submit: %v, want ErrReadOnly", r[0].Err)
	}
	refused("read-only", "single/d", "batch/e")
	v, err := p.DoMeta(context.Background(), "sync/f", crashMeta(6), fn)
	if err != nil || v != "ok" {
		t.Fatalf("DoMeta while read-only: %v, %v, want ok", v, err)
	}
	if got := p.Stats(); got.Completed != 1 {
		t.Fatalf("stats %+v, want the sync job completed", got)
	}
}

// holdFS holds the first segment Write after armed is set until
// release is closed, signalling entered once it is held — a window in
// which a test can run Shutdown against an append still in flight.
type holdFS struct {
	fsx.FS
	armed            atomic.Bool
	entered, release chan struct{}
}

func newHoldFS(inner fsx.FS) *holdFS {
	return &holdFS{FS: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *holdFS) OpenAppend(name string) (fsx.File, error) {
	f, err := h.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return holdFile{File: f, h: h}, nil
}

type holdFile struct {
	fsx.File
	h *holdFS
}

func (f holdFile) Write(p []byte) (int, error) {
	if f.h.armed.CompareAndSwap(true, false) {
		close(f.h.entered)
		<-f.h.release
	}
	return f.File.Write(p)
}

// TestENOSPCBeatsRacingShutdown: when a Shutdown races an accept
// whose records hit ENOSPC, the submission answers ErrReadOnly —
// alone or in a batch — and no failed record is written to the disk
// that just refused the accepts. holdFS keeps the accepted record's
// write open until Shutdown has returned.
func TestENOSPCBeatsRacingShutdown(t *testing.T) {
	fn := func(ctx context.Context) (any, error) { return nil, nil }
	submits := map[string]func(p *Pool) error{
		"single": func(p *Pool) error {
			_, err := p.SubmitMeta("race/a", crashMeta(1), fn)
			return err
		},
		"batch": func(p *Pool) error {
			res := p.SubmitBatch([]BatchItem{{ID: "race/a", Meta: crashMeta(1), Fn: fn}})
			return res[0].Err
		},
	}
	for _, name := range []string{"single", "batch"} {
		fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 1})
		hold := newHoldFS(fa)
		j, _, err := journal.Open(journal.Options{Dir: t.TempDir(), FS: hold})
		if err != nil {
			t.Fatal(err)
		}
		p := NewPool(PoolConfig{Workers: 1, Journal: j})
		fa.SetFull(true)
		hold.armed.Store(true)
		done := make(chan error, 1)
		go func() { done <- submits[name](p) }()
		<-hold.entered
		if err := p.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		close(hold.release)
		if err := <-done; !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%s: %v, want ErrReadOnly", name, err)
		}
		if st := j.Stats(); st.NoSpaceErrors != 1 || st.AppendErrors != 1 {
			t.Fatalf("%s: journal %+v, want only the accepted record refused", name, st)
		}
		if _, ok := p.Get("race/a"); ok {
			t.Fatalf("%s: rolled-back job still pollable", name)
		}
		j.Close()
	}
}
