// Package replication ships the write-ahead log over the wire: leaders
// stream WAL records (and install snapshots for new or lagging
// followers) over a framed TCP protocol, and followers apply them
// through the same replay path as crash recovery, serving reads while
// rejecting writes. The correctness contract is inherited from the WAL:
// a follower that applied prefix P of a graph's record stream is
// byte-identical (storage.WriteGraphImage) to a leader recovered from
// prefix P.
//
// Wire format. Every message is one frame, identical in shape to a WAL
// segment record (storage.AppendFrame). A frame that fails its
// checksum, overruns the length cap, or decodes to an unknown or
// malformed message is a protocol error: the receiver
// drops the connection and the follower reconnects — torn bytes are
// never applied. Payloads begin with a one-byte message type:
//
//	hello     follower->leader  magic "EFRP", protocol version, and the
//	                            follower's per-graph applied versions and
//	                            incarnations (a graph's version IS its
//	                            resume offset — but only within the
//	                            incarnation that produced it)
//	snapshot  leader->follower  graph name + incarnation + exact image
//	                            (snapshot install)
//	record    leader->follower  graph name + one WAL record payload,
//	                            byte-for-byte as framed on the leader's disk
//	drop      leader->follower  graph name (the leader dropped it)
//	heartbeat leader->follower  leader's per-graph versions (lag signal)
//	ack       follower->leader  follower's per-graph applied versions
//
// Incarnations. A graph's version restarts when the graph is dropped and
// recreated under the same name, so a version alone cannot identify a
// point in history: a follower holding the OLD g at version 20 must not
// be "caught up" to a NEW g that also happens to be at version 20. Each
// incarnation therefore carries a random 64-bit id, assigned by the
// leader when the incarnation first appears and shipped with every
// snapshot. Catch-up trusts version arithmetic only when the follower's
// incarnation matches the leader's; any mismatch (or an unknown
// incarnation) falls back to a snapshot install.
package replication

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"expfinder/internal/storage"
)

// Message types.
const (
	MsgHello     byte = 1
	MsgSnapshot  byte = 2
	MsgRecord    byte = 3
	MsgDrop      byte = 4
	MsgHeartbeat byte = 5
	MsgAck       byte = 6
)

const (
	// helloMagic opens every hello payload so a stray client speaking a
	// different protocol is rejected at the first frame.
	helloMagic = "EFRP"
	// ProtoVersion is the wire protocol version sent in hello.
	ProtoVersion = 1
	// MaxFrame caps a frame payload; larger lengths are corruption (or
	// abuse), not data. Snapshots of bigger graphs must not happen — a
	// graph image approaching this is a deployment problem surfaced
	// loudly, not silently truncated.
	MaxFrame = 1 << 30
	// maxGraphs caps the per-graph version lists in hello/heartbeat/ack.
	maxGraphs = 1 << 20
)

// ErrBadFrame reports framing-level damage: checksum mismatch, length
// overrun, or a truncated frame.
var ErrBadFrame = errors.New("replication: bad frame")

// Message is the decoded form of one protocol frame.
type Message struct {
	Type byte
	// Proto is the protocol version (hello only).
	Proto uint64
	// Graphs carries per-graph versions (hello, heartbeat, ack).
	Graphs map[string]uint64
	// Incs carries the follower's per-graph incarnation ids (hello only).
	Incs map[string]uint64
	// Name is the graph a snapshot/record/drop applies to.
	Name string
	// Incarnation identifies the graph history a snapshot begins
	// (snapshot only).
	Incarnation uint64
	// Data is the opaque body: a graph image (snapshot) or a WAL record
	// payload (record), exactly as the WAL frames it on disk.
	Data []byte
}

// WriteFrame frames payload onto w: length, payload, checksum.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: payload %d exceeds cap", ErrBadFrame, len(payload))
	}
	_, err := w.Write(storage.AppendFrame(nil, payload))
	return err
}

// ReadFrame reads one frame from r and returns its verified payload.
// io.EOF at a frame boundary is returned as-is (clean shutdown); any
// other damage — truncation mid-frame, an implausible length, a
// checksum mismatch — is ErrBadFrame.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	plen, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: length: %v", ErrBadFrame, err)
	}
	if plen > MaxFrame {
		return nil, fmt.Errorf("%w: payload length %d exceeds cap", ErrBadFrame, plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated checksum: %v", ErrBadFrame, err)
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return payload, nil
}

// writeVersions appends a sorted per-graph version list.
func writeVersions(buf *bytes.Buffer, graphs map[string]uint64) error {
	if err := storage.WriteUvarint(buf, uint64(len(graphs))); err != nil {
		return err
	}
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := storage.WriteString(buf, name); err != nil {
			return err
		}
		if err := storage.WriteUvarint(buf, graphs[name]); err != nil {
			return err
		}
	}
	return nil
}

func readVersions(br *bytes.Reader) (map[string]uint64, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxGraphs {
		return nil, fmt.Errorf("replication: implausible graph count %d", n)
	}
	// Every entry costs at least 2 bytes; a count beyond the remaining
	// payload is corrupt.
	if n > uint64(br.Len()) {
		return nil, fmt.Errorf("replication: graph count %d exceeds payload", n)
	}
	graphs := make(map[string]uint64, n)
	for i := uint64(0); i < n; i++ {
		name, err := storage.ReadString(br, 1<<16)
		if err != nil {
			return nil, err
		}
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		graphs[name] = v
	}
	return graphs, nil
}

// EncodeHello builds a hello payload from the follower's applied
// versions and the incarnation ids they belong to.
func EncodeHello(graphs, incs map[string]uint64) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(MsgHello)
	buf.WriteString(helloMagic)
	if err := storage.WriteUvarint(&buf, ProtoVersion); err != nil {
		return nil, err
	}
	if err := writeVersions(&buf, graphs); err != nil {
		return nil, err
	}
	if err := writeVersions(&buf, incs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeSnapshot builds a snapshot payload: name, incarnation id, exact
// graph image.
func EncodeSnapshot(name string, incarnation uint64, image []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(name) + len(image) + 16)
	buf.WriteByte(MsgSnapshot)
	if err := storage.WriteString(&buf, name); err != nil {
		return nil, err
	}
	if err := storage.WriteUvarint(&buf, incarnation); err != nil {
		return nil, err
	}
	buf.Write(image)
	return buf.Bytes(), nil
}

// EncodeVersions builds a heartbeat or ack payload (typ selects which).
func EncodeVersions(typ byte, graphs map[string]uint64) ([]byte, error) {
	if typ != MsgHeartbeat && typ != MsgAck {
		return nil, fmt.Errorf("replication: type %d carries no version list", typ)
	}
	var buf bytes.Buffer
	buf.WriteByte(typ)
	if err := writeVersions(&buf, graphs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeNamed builds a record or drop payload: name plus the opaque
// body (empty for drop). Snapshots carry an incarnation — use
// EncodeSnapshot.
func EncodeNamed(typ byte, name string, data []byte) ([]byte, error) {
	if typ != MsgRecord && typ != MsgDrop {
		return nil, fmt.Errorf("replication: type %d is not a named message", typ)
	}
	var buf bytes.Buffer
	buf.Grow(len(name) + len(data) + 8)
	buf.WriteByte(typ)
	if err := storage.WriteString(&buf, name); err != nil {
		return nil, err
	}
	buf.Write(data)
	return buf.Bytes(), nil
}

// DecodeMessage parses one verified frame payload. Unknown types and
// malformed bodies are errors — the receiver treats them as protocol
// damage and drops the connection, never applying a partial decode.
func DecodeMessage(payload []byte) (*Message, error) {
	if len(payload) == 0 {
		return nil, errors.New("replication: empty message")
	}
	msg := &Message{Type: payload[0]}
	br := bytes.NewReader(payload[1:])
	switch msg.Type {
	case MsgHello:
		magic := make([]byte, len(helloMagic))
		if _, err := io.ReadFull(br, magic); err != nil || string(magic) != helloMagic {
			return nil, errors.New("replication: bad hello magic")
		}
		proto, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("replication: hello version: %w", err)
		}
		msg.Proto = proto
		if msg.Graphs, err = readVersions(br); err != nil {
			return nil, err
		}
		if msg.Incs, err = readVersions(br); err != nil {
			return nil, err
		}
	case MsgHeartbeat, MsgAck:
		var err error
		if msg.Graphs, err = readVersions(br); err != nil {
			return nil, err
		}
	case MsgSnapshot, MsgRecord, MsgDrop:
		name, err := storage.ReadString(br, 1<<16)
		if err != nil {
			return nil, fmt.Errorf("replication: message name: %w", err)
		}
		msg.Name = name
		if msg.Type == MsgSnapshot {
			inc, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("replication: snapshot incarnation: %w", err)
			}
			msg.Incarnation = inc
		}
		rest := br.Len()
		msg.Data = payload[len(payload)-rest:]
		if msg.Type == MsgDrop && rest != 0 {
			return nil, fmt.Errorf("replication: %d trailing bytes in drop", rest)
		}
		if msg.Type != MsgDrop && rest == 0 {
			return nil, errors.New("replication: empty message body")
		}
		return msg, nil
	default:
		return nil, fmt.Errorf("replication: unknown message type %d", msg.Type)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("replication: %d trailing bytes in message", br.Len())
	}
	return msg, nil
}
