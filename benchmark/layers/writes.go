package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"probprune/internal/core"
	"probprune/internal/cq"
	"probprune/internal/query"
	"probprune/internal/wal"
)

// writeDurable replays write-durable's warm-up slice on a durable store
// opened the way udbserver opens it, with the interleaved KNNs checked
// against the wire pass; then times the journal alone.
func (r *run) writeDurable() error {
	w, tr := r.w, r.tr
	opts := core.Options{MaxIterations: w.Iterations}
	dir := filepath.Join(r.work, "layers-store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	popts := query.PersistOptions{Dir: dir, Sync: wal.SyncAlways, CheckpointEvery: 4096}
	store, err := query.BootstrapStore(r.db, popts, opts)
	if err != nil {
		return err
	}
	updates := w.Updates(r.seed, r.wireDB(), nil, w.WarmOps())
	reads := w.Queries(r.seed, w.WarmOps()/w.ReadEvery)
	if len(r.oracle.KNN) != len(reads) {
		r.fail("wire pass answered %d reads, op list has %d", len(r.oracle.KNN), len(reads))
	}
	for i, u := range updates {
		o := r.decode(u.Payload)
		var uerr error
		tr.call("query.store_update_us", -1, i, func() { uerr = store.Update(o) })
		if uerr != nil {
			return uerr
		}
		if g := i + 1; g%w.ReadEvery == 0 {
			k := g/w.ReadEvery - 1
			ms := store.KNN(r.decode(reads[k]), w.K, w.Tau)
			if k < len(r.oracle.KNN) && !slices.Equal(matchIDs(ms), r.oracle.KNN[k]) {
				r.fail("read %d: wire results %v, in-process %v", k, r.oracle.KNN[k], matchIDs(ms))
			}
		}
	}
	r.report("query.store_update_us", time.Microsecond)
	if err := store.Close(); err != nil {
		return err
	}

	// The journal alone: replay what the store just wrote, then append
	// the same records to a fresh journal, each waiting for its fsync.
	walOpts := wal.Options{Sync: wal.SyncAlways}
	j, err := wal.Open(dir, walOpts)
	if err != nil {
		return err
	}
	var recs []wal.Record
	var rerr error
	tr.call("wal.replay_ms", -1, -1, func() {
		rerr = j.Replay(func(rec wal.Record) error { recs = append(recs, rec); return nil })
	})
	if rerr != nil {
		return rerr
	}
	r.report("wal.replay_ms", time.Millisecond)
	if err := j.Close(); err != nil {
		return err
	}
	jdir := filepath.Join(r.work, "layers-journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return err
	}
	fresh, err := wal.Open(jdir, walOpts)
	if err != nil {
		return err
	}
	if err := fresh.Replay(func(wal.Record) error { return nil }); err != nil {
		return err
	}
	for i, rec := range recs {
		var aerr error
		tr.call("wal.append_sync_us", -1, i, func() { aerr = fresh.Append(rec) })
		if aerr != nil {
			return aerr
		}
	}
	r.report("wal.append_sync_us", time.Microsecond)
	if err := fresh.Close(); err != nil {
		return err
	}

	r.rtreeWrites(r.bulkTree(), updates[:min(len(updates), 200)])
	return nil
}

// pushFanout replays push-fanout's subscriptions and warm-up slice on
// an in-process monitor: every initial result set and every event of
// the slice must be what the wire delivered.
func (r *run) pushFanout() error {
	w, tr := r.w, r.tr
	ctx := context.Background()
	store, err := query.NewStore(r.db, core.Options{MaxIterations: w.Iterations})
	if err != nil {
		return err
	}
	defer store.Close()
	// One mutation wakes a few subscriptions with a few events each; the
	// buffer is drained after every mutation, so 1024 never fills.
	mon := cq.NewMonitor(store, cq.Options{Buffer: 1024})
	defer mon.Close()
	subs := make([]*cq.Subscription, w.Subs)
	for i, q := range w.Queries(r.seed, w.Subs) {
		if subs[i], err = mon.SubscribeKNN(r.decode(q), w.K, w.Tau); err != nil {
			return err
		}
	}
	if err := mon.Sync(ctx); err != nil {
		return err
	}
	type event struct {
		m, s   int
		kind   string
		object int
	}
	drain := func(m int) []event {
		var evs []event
		for s, sub := range subs {
			for {
				select {
				case ev, ok := <-sub.Events():
					if !ok {
						panic(fmt.Sprintf("layers: subscription %d ended: %v", s, sub.Err()))
					}
					evs = append(evs, event{m, s, ev.Kind.String(), ev.Object.ID})
					continue
				default:
				}
				break
			}
		}
		return evs
	}
	initial := make([][]int, w.Subs)
	hotSet := map[int]bool{}
	for _, ev := range drain(-1) {
		initial[ev.s] = append(initial[ev.s], ev.object)
		hotSet[ev.object] = true
	}
	for s := range initial {
		sort.Ints(initial[s])
		var wire []int
		if s < len(r.oracle.Initial) {
			wire = append(wire, r.oracle.Initial[s]...)
			sort.Ints(wire)
		}
		if !slices.Equal(initial[s], wire) {
			r.fail("subscription %d: wire initial set %v, in-process %v", s, wire, initial[s])
		}
	}
	hot := make([]int, 0, len(hotSet))
	for id := range hotSet {
		hot = append(hot, id)
	}
	sort.Ints(hot)

	var got []event
	for i, u := range w.Updates(r.seed, r.wireDB(), hot, w.WarmOps()) {
		o := r.decode(u.Payload)
		var uerr error
		tr.call("cq.maintain_ms", -1, i, func() {
			if uerr = store.Update(o); uerr == nil {
				uerr = mon.Sync(ctx)
			}
		})
		if uerr != nil {
			return uerr
		}
		got = append(got, drain(i)...)
	}
	r.report("cq.maintain_ms", time.Millisecond)

	want := make([]event, len(r.oracle.Events))
	for i, e := range r.oracle.Events {
		want[i] = event{e.Mutation, e.Sub, e.Kind, e.Object}
	}
	less := func(evs []event) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.m != b.m {
				return a.m < b.m
			}
			if a.s != b.s {
				return a.s < b.s
			}
			return a.object < b.object
		}
	}
	sort.Slice(got, less(got))
	sort.Slice(want, less(want))
	if len(got) != len(want) {
		r.fail("warm-up slice: wire delivered %d events, in-process %d", len(want), len(got))
	} else {
		for i := range got {
			if got[i] != want[i] {
				r.fail("warm-up slice event %d: wire %v, in-process %v", i, want[i], got[i])
				break
			}
		}
	}
	return nil
}
