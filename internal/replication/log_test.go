package replication

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"expfinder/internal/engine"
	"expfinder/internal/wal"
)

// recordLog collects JSON log records from concurrent writers.
type recordLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *recordLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// find returns the first record whose msg is msg, or nil.
func (l *recordLog) find(t *testing.T, msg string) map[string]any {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range strings.Split(strings.TrimSpace(l.buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not one JSON record: %v: %s", err, line)
		}
		if rec["msg"] == msg {
			return rec
		}
	}
	return nil
}

func waitRecord(t *testing.T, l *recordLog, msg string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rec := l.find(t, msg); rec != nil {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q record in:\n%s", msg, l.buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLifecycleLogsAreRecords: the leader's and the follower's lifecycle
// lines are structured records whose addresses, counts and errors are
// fields, with no "replication:" prefix in the message.
func TestLifecycleLogsAreRecords(t *testing.T) {
	var leaderLog, followerLog recordLog
	m, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Persistence: m})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(LeaderOptions{
		Engine: eng, WAL: m, Listener: ln,
		Logger: slog.New(slog.NewJSONHandler(&leaderLog, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		l.Close()
		eng.Close()
	})

	feng := engine.New(engine.Options{})
	f, err := NewFollower(FollowerOptions{
		Engine: feng, Leader: l.Addr(),
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
		Logger: slog.New(slog.NewJSONHandler(&followerLog, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := waitRecord(t, &leaderLog, "follower_connected")
	if addr, _ := rec["follower"].(string); addr == "" || rec["graphs"] != float64(0) {
		t.Errorf("follower_connected record %v, want a follower address and graphs 0", rec)
	}
	f.Close()
	feng.Close()

	// A follower whose leader is gone logs each failed dial with the
	// leader's address and the error as fields.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	feng = engine.New(engine.Options{})
	f, err = NewFollower(FollowerOptions{
		Engine: feng, Leader: deadAddr,
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
		Logger: slog.New(slog.NewJSONHandler(&followerLog, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.Close()
		feng.Close()
	})
	rec = waitRecord(t, &followerLog, "dial_failed")
	if rec["leader"] != deadAddr || rec["err"] == nil {
		t.Errorf("dial_failed record %v, want leader %s and an err", rec, deadAddr)
	}
	for _, lg := range []*recordLog{&leaderLog, &followerLog} {
		lg.mu.Lock()
		if strings.Contains(lg.buf.String(), "replication:") {
			t.Errorf("a record repeats the replication: prefix:\n%s", lg.buf.String())
		}
		lg.mu.Unlock()
	}
}
