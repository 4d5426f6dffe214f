package replication

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"expfinder/internal/engine"
	"expfinder/internal/testutil"
	"expfinder/internal/wal"
)

// copyTree clones the leader's WAL directory so recovery runs on a cold
// copy, as after a crash.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicationConvergenceProperty is replication's centerpiece: for
// arbitrary mutation streams, arbitrary disconnect points, and both
// catch-up paths (replay from the leader's WAL segments, and snapshot
// install once a checkpoint has truncated the gap — both forced by
// checkpointing at random steps over small random segments), the
// follower converges to a state byte-identical to the leader — and to a
// third engine crash-recovered from the leader's WAL directory, tying
// replication correctness to the recovery correctness the WAL tests
// already establish.
func TestReplicationConvergenceProperty(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for iter := 0; iter < iters; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%02d", iter), func(t *testing.T) {
			t.Parallel()
			runConvergenceIteration(t, int64(1000+iter))
		})
	}
}

func runConvergenceIteration(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	// Small segments make a reconnect replay across several rotated
	// segments; the random checkpoints below truncate gaps and force
	// snapshot installs. Exercise both.
	segBytes := int64(64 + r.Intn(2048))

	ldir := t.TempDir()
	le := startLeader(t, wal.Options{Dir: ldir, Fsync: wal.FsyncOff, SegmentBytes: segBytes})
	leng, lm, l := le.eng, le.wal, le.leader
	defer func() {
		l.Close()
		leng.Close()
	}()

	// Some graphs exist before the follower connects, some appear later.
	nGraphs := 1 + r.Intn(3)
	names := make([]string, nGraphs)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
	}
	pre := 1 + r.Intn(nGraphs)
	for _, name := range names[:pre] {
		if err := leng.AddGraph(name, testutil.RandomGraph(r, 5+r.Intn(20), 20+r.Intn(40))); err != nil {
			t.Fatal(err)
		}
	}

	// The follower dials through fault-wrapped conns the test can sever
	// at arbitrary moments.
	var mu sync.Mutex
	var cur *testutil.FaultConn
	dial := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		fc := testutil.NewFaultConn(c)
		mu.Lock()
		cur = fc
		mu.Unlock()
		return fc, nil
	}
	feng := engine.New(engine.Options{})
	f, err := NewFollower(FollowerOptions{
		Engine:       feng,
		Leader:       l.Addr(),
		Dial:         dial,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		f.Close()
		feng.Close()
	}()

	// Arbitrary mutation stream with interleaved faults: severs at random
	// byte offsets (torn frames on the wire), hard severs, graph creates
	// and drops mid-stream.
	steps := 150 + r.Intn(200)
	created := pre
	for i := 0; i < steps; i++ {
		switch {
		case r.Intn(40) == 0 && created < nGraphs: // late graph create
			if err := leng.AddGraph(names[created], testutil.RandomGraph(r, 5+r.Intn(10), 10+r.Intn(20))); err != nil {
				t.Fatal(err)
			}
			created++
		case r.Intn(80) == 0 && created > 1: // drop and recreate later
			victim := names[r.Intn(created)]
			if err := leng.RemoveGraph(victim); err == nil {
				if err := leng.AddGraph(victim, testutil.RandomGraph(r, 3+r.Intn(8), 5+r.Intn(15))); err != nil {
					t.Fatal(err)
				}
			}
		case r.Intn(60) == 0: // checkpoint: truncates the log below it
			if err := leng.Checkpoint(names[r.Intn(created)]); err != nil {
				t.Fatal(err)
			}
		case r.Intn(25) == 0: // fault injection
			mu.Lock()
			fc := cur
			mu.Unlock()
			if fc != nil && !fc.Severed() {
				if r.Intn(2) == 0 {
					fc.SeverAfterRead(int64(1 + r.Intn(500)))
				} else {
					fc.Sever()
				}
			}
		default:
			mutate(t, leng, names[r.Intn(created)], r)
		}
	}

	waitConverged(t, leng, feng, fmt.Sprintf("seed %d segment bytes %d", seed, segBytes))

	// The final tie to crash recovery: an engine recovered cold from the
	// leader's WAL directory must be byte-identical to both live nodes.
	if err := lm.Flush(); err != nil {
		t.Fatal(err)
	}
	rdir := t.TempDir()
	copyTree(t, ldir, rdir)
	rm, err := wal.Open(wal.Options{Dir: rdir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	reng := engine.New(engine.Options{Persistence: rm})
	defer reng.Close()
	if _, err := reng.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, name := range leng.ListGraphs() {
		live := imageOf(t, leng, name)
		repl := imageOf(t, feng, name)
		recd := imageOf(t, reng, name)
		if !bytes.Equal(live, repl) {
			t.Fatalf("seed %d: follower image of %q diverged from leader", seed, name)
		}
		if !bytes.Equal(live, recd) {
			t.Fatalf("seed %d: recovered image of %q diverged from leader", seed, name)
		}
	}
}
