package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wire"
)

// failingLog is a WAL whose every append and checkpoint fails, as a full or
// yanked disk would.
type failingLog struct{}

var errLogFailed = errors.New("log device failed")

func (failingLog) Append(uint64, []wire.UpdateOp) error { return errLogFailed }
func (failingLog) ShouldCheckpoint() bool               { return false }
func (failingLog) Checkpoint(uint64, []byte) error      { return errLogFailed }

// TestSnapshotNamesWALLatchedShard: when one shard's WAL fails, the shard
// keeps acknowledging updates it no longer logs. The router's snapshot, which
// prodb prints in its -stats and final lines, must name that shard, and only
// that one.
func TestSnapshotNamesWALLatchedShard(t *testing.T) {
	objs := genObjects(2000, 3)
	part, err := MakePartition(objs, 2)
	if err != nil {
		t.Fatal(err)
	}
	const failing = 1
	split := part.Split(objs)
	shards := make([]Shard, len(split))
	for s := range split {
		items := make([]rtree.Item, len(split[s]))
		for i, o := range split[s] {
			items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
		}
		var cfg server.Config
		if s == failing {
			cfg.WAL = failingLog{}
		}
		srv := server.New(rtree.BulkLoad(rtree.Params{MaxEntries: testMaxEntries}, items, bulkFill),
			func(rtree.ObjectID) int { return 1 }, cfg)
		defer srv.Close()
		var cur atomic.Pointer[server.Server]
		cur.Store(srv)
		shards[s] = Shard{T: serverTransport{cur: &cur}, Release: srv.ReleaseResponse}
	}
	r, err := New(shards, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range r.Snapshot().PerShard {
		if sh.WALLatched {
			t.Fatalf("shard %d reads latched before any update", s)
		}
	}
	for s := range split {
		resp, err := r.RoundTrip(&wire.Request{Client: 1, Updates: []wire.UpdateOp{{
			Kind: wire.UpdateInsert, Obj: rtree.ObjectID(1<<30 + s), To: split[s][0].MBR, Size: 1,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.UpdateResults) != 1 || !resp.UpdateResults[0] {
			t.Fatalf("insert into shard %d: results %v; a latched shard still acknowledges", s, resp.UpdateResults)
		}
		r.ReleaseResponse(resp)
	}
	snap := r.Snapshot()
	for s, sh := range snap.PerShard {
		if sh.WALLatched != (s == failing) {
			t.Errorf("shard %d: WALLatched = %v, want %v", s, sh.WALLatched, s == failing)
		}
	}
	if line, want := snap.String(), fmt.Sprintf(" %d=", failing); !strings.Contains(line, "(wal-latched)") ||
		strings.Index(line, "(wal-latched)") < strings.Index(line, want) {
		t.Errorf("stats line does not name shard %d as latched: %s", failing, line)
	}
}
