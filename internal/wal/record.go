package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"expfinder/internal/graph"
	"expfinder/internal/storage"
)

// Record kinds, one per engine mutation path. RecVersion carries no
// mutation: it advances the version counter alone. Nothing writes one
// any more (a rollback re-adds edges by append, changing adjacency ORDER,
// so the engine logs the forward+inverse op sequence instead to keep
// recovery byte-identical), but logs already on disk may hold one, so
// encode, decode and replay keep reading it.
//
// The kinds are exported because replication ships record payloads
// verbatim: a follower decodes the same bytes the leader framed and
// applies them through the same code path as crash recovery.
const (
	RecUpdates    byte = 1
	RecAddNode    byte = 2
	RecRemoveNode byte = 3
	RecSetAttr    byte = 4
	RecVersion    byte = 5
)

// Update is one logged edge insertion or deletion.
type Update = graph.Update

// Record is the decoded form of one log entry. Post is the graph's
// version immediately after the mutation; replay restores it exactly, so
// recovered graphs re-enter the engine at the version a follower's
// position and every version-keyed consumer knew them by.
type Record struct {
	Kind  byte
	Post  uint64
	Ops   []Update     // RecUpdates
	Label string       // RecAddNode
	Attrs graph.Attrs  // RecAddNode
	ID    graph.NodeID // RecRemoveNode, RecSetAttr
	Key   string       // RecSetAttr
	Val   graph.Value  // RecSetAttr
}

// EncodeRecord serializes the record body (everything the frame CRC
// covers) using the storage binary conventions.
func EncodeRecord(buf *bytes.Buffer, r *Record) error {
	buf.WriteByte(r.Kind)
	if err := storage.WriteUvarint(buf, r.Post); err != nil {
		return err
	}
	switch r.Kind {
	case RecUpdates:
		if err := storage.WriteUvarint(buf, uint64(len(r.Ops))); err != nil {
			return err
		}
		for _, op := range r.Ops {
			ins := byte(0)
			if op.Insert {
				ins = 1
			}
			buf.WriteByte(ins)
			if err := storage.WriteUvarint(buf, uint64(op.From)); err != nil {
				return err
			}
			if err := storage.WriteUvarint(buf, uint64(op.To)); err != nil {
				return err
			}
		}
	case RecAddNode:
		if err := storage.WriteString(buf, r.Label); err != nil {
			return err
		}
		if err := storage.WriteUvarint(buf, uint64(len(r.Attrs))); err != nil {
			return err
		}
		keys := make([]string, 0, len(r.Attrs))
		for k := range r.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := storage.WriteString(buf, k); err != nil {
				return err
			}
			if err := storage.WriteValue(buf, r.Attrs[k]); err != nil {
				return err
			}
		}
	case RecRemoveNode:
		if err := storage.WriteUvarint(buf, uint64(r.ID)); err != nil {
			return err
		}
	case RecSetAttr:
		if err := storage.WriteUvarint(buf, uint64(r.ID)); err != nil {
			return err
		}
		if err := storage.WriteString(buf, r.Key); err != nil {
			return err
		}
		if err := storage.WriteValue(buf, r.Val); err != nil {
			return err
		}
	case RecVersion:
		// post alone.
	default:
		return fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return nil
}

// DecodeRecord parses one CRC-verified payload. Errors mean corruption
// beyond what the frame checksum caught (which is why they are treated
// as fatal, not torn-tail, by the replayer — and as a resync trigger,
// never a silent skip, by a replication follower).
func DecodeRecord(payload []byte) (*Record, error) {
	br := bytes.NewReader(payload)
	kind, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("wal: empty record: %w", err)
	}
	post, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("wal: record version: %w", err)
	}
	rec := &Record{Kind: kind, Post: post}
	readID := func() (graph.NodeID, error) {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return graph.Invalid, err
		}
		if u > 1<<31 {
			return graph.Invalid, fmt.Errorf("wal: implausible node id %d", u)
		}
		return graph.NodeID(u), nil
	}
	switch kind {
	case RecUpdates:
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		// Every op costs at least 3 payload bytes; a count beyond that is
		// corrupt, and even a valid count must not drive a huge up-front
		// allocation (append grows past the clamp just fine).
		if n > uint64(len(payload))/3 {
			return nil, fmt.Errorf("wal: implausible op count %d", n)
		}
		hint := n
		if hint > 1<<16 {
			hint = 1 << 16
		}
		rec.Ops = make([]Update, 0, hint)
		for i := uint64(0); i < n; i++ {
			ins, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if ins > 1 {
				return nil, fmt.Errorf("wal: bad op flag %d", ins)
			}
			from, err := readID()
			if err != nil {
				return nil, err
			}
			to, err := readID()
			if err != nil {
				return nil, err
			}
			rec.Ops = append(rec.Ops, Update{Insert: ins == 1, From: from, To: to})
		}
	case RecAddNode:
		if rec.Label, err = storage.ReadString(br, 1<<20); err != nil {
			return nil, err
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if n > 1<<16 {
			return nil, fmt.Errorf("wal: implausible attr count %d", n)
		}
		if n > 0 {
			rec.Attrs = make(graph.Attrs, n)
			for i := uint64(0); i < n; i++ {
				k, err := storage.ReadString(br, 1<<20)
				if err != nil {
					return nil, err
				}
				v, err := storage.ReadValue(br)
				if err != nil {
					return nil, err
				}
				rec.Attrs[k] = v
			}
		}
	case RecRemoveNode:
		if rec.ID, err = readID(); err != nil {
			return nil, err
		}
	case RecSetAttr:
		if rec.ID, err = readID(); err != nil {
			return nil, err
		}
		if rec.Key, err = storage.ReadString(br, 1<<20); err != nil {
			return nil, err
		}
		if rec.Val, err = storage.ReadValue(br); err != nil {
			return nil, err
		}
	case RecVersion:
		// nothing further
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", kind)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes in record", br.Len())
	}
	return rec, nil
}

// Apply replays the record's mutation onto g and restores the logged
// post-mutation version. The engine logged the record after the mutation
// succeeded, so replay failures mean the log and snapshot disagree —
// corruption, reported as an error.
func (r *Record) Apply(g *graph.Graph) error {
	switch r.Kind {
	case RecUpdates:
		for _, op := range r.Ops {
			if err := op.Apply(g); err != nil {
				return fmt.Errorf("wal: replay edge op %d->%d: %w", op.From, op.To, err)
			}
		}
	case RecAddNode:
		g.AddNode(r.Label, r.Attrs)
	case RecRemoveNode:
		if err := g.RemoveNode(r.ID); err != nil {
			return fmt.Errorf("wal: replay remove node %d: %w", r.ID, err)
		}
	case RecSetAttr:
		if err := g.SetAttr(r.ID, r.Key, r.Val); err != nil {
			return fmt.Errorf("wal: replay set attr on node %d: %w", r.ID, err)
		}
	case RecVersion:
		// version restore below is the whole mutation
	}
	g.RestoreVersion(r.Post)
	return nil
}
