package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"expfinder/internal/graph"
	"expfinder/internal/storage"
)

// Recovered is the result of replaying one graph's persisted state.
type Recovered struct {
	// Graph is the reconstructed graph at its exact pre-crash version
	// (modulo records lost to the fsync policy or a torn tail).
	Graph *graph.Graph
	// SnapshotVersion is the version of the snapshot replay started
	// from; zero with HadSnapshot false means replay started empty.
	SnapshotVersion uint64
	HadSnapshot     bool
	// Records is how many log records were replayed on top.
	Records int
	// TornTail reports that the final segment ended mid-record — the
	// signature of a crash during an append — and the partial record was
	// discarded. Everything before it was recovered.
	TornTail bool
}

// GraphNames lists the graphs with persisted state, sorted.
func (m *Manager) GraphNames() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(m.opts.Dir, "graphs"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Recover rebuilds one graph from its latest valid snapshot plus every
// surviving log record, then re-attaches the graph to the manager with a
// fresh checkpoint — collapsing snapshot + replayed segments into one
// snapshot, which is how replayed WAL gets truncated. The returned graph
// is the engine's to own (register it before mutating).
//
// Tolerated damage, in recovery order: a corrupt newest snapshot falls
// back to the previous one (a crash can only tear the newest, which the
// atomic rename already guards); a torn record at the end of the final
// segment is dropped, and the damaged segment is quarantined as
// <name>.torn (never deleted) so the dropped bytes stay inspectable.
// Damage anywhere else — a torn record mid-log, a damaged frame with
// valid records after it (bit rot, not a crash), a snapshot/record
// mismatch — is corruption and fails the recovery without touching the
// files, so an operator can inspect them.
func (m *Manager) Recover(name string) (*Recovered, error) {
	if err := storage.ValidName(name); err != nil {
		return nil, err
	}
	dir := m.graphDir(name)
	gl := &graphLog{m: m, name: name, dir: dir}
	if err := m.reserve(name, gl); err != nil {
		return nil, err
	}
	if _, err := os.Stat(dir); err != nil {
		m.unreserve(name, gl)
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	rec, err := loadGraphState(dir)
	if err != nil {
		m.unreserve(name, gl)
		return nil, fmt.Errorf("wal: recover %q: %w", name, err)
	}

	// Quarantine the torn segment before the re-checkpoint deletes the
	// replayed files: the discarded partial record stays on disk for
	// inspection (checkpoints never touch *.torn).
	if rec.TornTail {
		if _, segs, lerr := listState(dir); lerr == nil && len(segs) > 0 {
			last := segs[len(segs)-1].name
			_ = os.Rename(filepath.Join(dir, last), filepath.Join(dir, last+".torn"))
		}
	}
	// gl is already published via reserve; finish initialization under
	// its lock (Flush/Stats may observe it concurrently).
	gl.mu.Lock()
	defer gl.mu.Unlock()
	gl.lastVersion = rec.Graph.Version()
	if err := gl.checkpoint(rec.Graph); err != nil {
		m.unreserve(name, gl)
		gl.closeFile()
		return nil, fmt.Errorf("wal: re-checkpoint %q: %w", name, err)
	}
	if obs := m.observer(); obs != nil {
		obs.GraphCreated(name, rec.Graph)
	}
	return rec, nil
}

// loadGraphState reconstructs a graph from the files in dir without
// modifying anything.
func loadGraphState(dir string) (*Recovered, error) {
	snaps, segs, err := listState(dir)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{}
	g := graph.New(0)
	// Newest snapshot first; fall back on corruption. Only the newest can
	// legitimately be damaged (crash before its rename completed cannot
	// even leave the name; this guards against filesystem-level damage
	// too, since older snapshots plus their segments still reconstruct).
	for i := len(snaps) - 1; i >= 0; i-- {
		f, err := os.Open(filepath.Join(dir, snaps[i].name))
		if err != nil {
			continue
		}
		sg, rerr := storage.ReadGraphImage(f)
		f.Close()
		if rerr == nil {
			g = sg
			rec.HadSnapshot = true
			rec.SnapshotVersion = sg.Version()
			break
		}
		if i > 0 {
			continue
		}
		return nil, fmt.Errorf("no usable snapshot: %w", rerr)
	}
	// Replay segments oldest-first. Records at or below the graph's
	// version are already covered by the snapshot (a crash between
	// snapshot rename and segment deletion leaves such overlap).
	for i, seg := range segs {
		last := i == len(segs)-1
		n, torn, err := replaySegment(filepath.Join(dir, seg.name), g, last)
		rec.Records += n
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", seg.name, err)
		}
		if torn {
			rec.TornTail = true
		}
	}
	rec.Graph = g
	return rec, nil
}

type stateFile struct {
	name string
	ver  uint64
}

// listState enumerates snapshots and segments, sorted by their embedded
// version.
func listState(dir string) (snaps, segs []stateFile, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		return v, err == nil
	}
	for _, e := range entries {
		if v, ok := parse(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, stateFile{e.Name(), v})
		} else if v, ok := parse(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, stateFile{e.Name(), v})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].ver < snaps[j].ver })
	sort.Slice(segs, func(i, j int) bool { return segs[i].ver < segs[j].ver })
	return snaps, segs, nil
}

// replaySegment applies a segment's records to g, skipping those the
// snapshot already covers (a crash between snapshot rename and segment
// deletion leaves such overlap). tolerateTorn is scanSegment's.
func replaySegment(path string, g *graph.Graph, tolerateTorn bool) (replayed int, torn bool, err error) {
	torn, err = scanSegment(path, tolerateTorn, func(payload []byte) error {
		rec, err := DecodeRecord(payload)
		if err != nil {
			// The CRC matched, so this is not a torn write: the writer and
			// reader disagree about the format. Never silently drop it.
			return err
		}
		if rec.Post <= g.Version() {
			return nil
		}
		if err := rec.Apply(g); err != nil {
			return err
		}
		replayed++
		return nil
	})
	return replayed, torn, err
}

// scanSegment is the WAL's one segment reader, shared by recovery and
// replication catch-up: it hands each CRC-verified record payload of a
// segment file to fn, in order. Payloads alias the file's bytes, which
// nothing reuses, so fn may retain them. tolerateTorn (the final segment
// at recovery) turns a trailing partial or CRC-failing frame into a clean
// stop reported as torn instead of an error — unless a valid record
// follows the damage (tornOrCorrupt); a torn segment header likewise
// reads as an empty torn segment, the signature of a crash at rotation.
// An error from fn stops the scan and is returned as is.
func scanSegment(path string, tolerateTorn bool, fn func(payload []byte) error) (torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	// Header: magic, then two uvarints — the format version (must match)
	// and the base version (informational; the file name carries it too).
	off := len(segMagic)
	hdrOK := bytes.HasPrefix(data, []byte(segMagic))
	for i := 0; hdrOK && i < 2; i++ {
		v, n := binary.Uvarint(data[off:])
		hdrOK = n > 0 && (i > 0 || v == segFormatVersion)
		off += n
	}
	if !hdrOK {
		if tolerateTorn {
			return true, nil
		}
		return false, errors.New("bad segment header")
	}
	for frames := 0; off < len(data); frames++ {
		payload, next, ok := frameAt(data, off)
		if !ok {
			if tolerateTorn {
				return true, tornOrCorrupt(data, off, frames)
			}
			return false, fmt.Errorf("truncated or damaged frame after %d records", frames)
		}
		if err := fn(payload); err != nil {
			return false, err
		}
		off = next
	}
	return false, nil
}

// frameAt decodes the frame starting at data[off] — uvarint length,
// payload, CRC32 of the payload — returning the payload and the offset
// just past the frame, or ok=false if no whole, CRC-valid frame starts
// there.
func frameAt(data []byte, off int) (payload []byte, next int, ok bool) {
	plen, n := binary.Uvarint(data[off:])
	if n <= 0 || plen > 1<<30 || plen+4 > uint64(len(data)-off-n) {
		return nil, 0, false
	}
	end := off + n + int(plen)
	payload = data[off+n : end : end]
	if binary.LittleEndian.Uint32(data[end:]) != crc32.ChecksumIEEE(payload) {
		return nil, 0, false
	}
	return payload, end + 4, true
}

// tornOrCorrupt decides what a damaged frame at the end of the final
// segment means. A genuine torn write (the crash signature) leaves
// NOTHING decodable after the tear — the writer was killed mid-append of
// the last record. If a complete, CRC-valid, decodable frame exists
// anywhere after the damage, this is mid-segment corruption (bit rot)
// and silently dropping the valid suffix would lose acknowledged
// records: fail the recovery instead. The scan window is bounded;
// damage more than a window past the tear behaves like a torn tail,
// which is the lesser failure (quarantine keeps the bytes).
func tornOrCorrupt(data []byte, tearAt, replayed int) error {
	const scanWindow = 1 << 20
	limit := min(len(data), tearAt+scanWindow)
	for off := tearAt + 1; off < limit; off++ {
		if payload, _, ok := frameAt(data, off); ok {
			if _, derr := DecodeRecord(payload); derr == nil {
				return fmt.Errorf("damaged frame after %d records is followed by a valid record at +%d bytes — mid-segment corruption, not a torn tail", replayed, off-tearAt)
			}
		}
	}
	return nil
}
