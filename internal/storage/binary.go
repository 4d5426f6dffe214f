// Package storage persists graphs as files, the demo's storage layer
// ("all the graphs ... are stored and managed as files"). A Store keeps
// named graphs as JSON (the interchange format, tombstones compacted
// away) or as the checksummed binary image the write-ahead log also
// snapshots with (WriteGraphImage); the package also imports SNAP-style
// edge lists and owns the binary conventions the WAL's records share.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"expfinder/internal/graph"
)

// Image decoding errors.
var (
	ErrBadVersion  = errors.New("storage: unsupported binary format version")
	ErrBadChecksum = errors.New("storage: checksum mismatch (corrupted file)")
)

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

// BinaryReader is the byte-oriented reader the exported binary-convention
// helpers consume. bytes.Reader and bufio.Reader both satisfy it; so does
// this package's internal CRC-tracking reader. The write-ahead log
// (internal/wal) shares these primitives so its record payloads and the
// graph codecs stay one format family.
type BinaryReader interface {
	io.Reader
	io.ByteReader
}

// WriteUvarint writes x in unsigned varint encoding.
func WriteUvarint(w io.Writer, x uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	_, err := w.Write(buf[:n])
	return err
}

// AppendFrame appends payload to dst as one checksummed frame, the shape
// of every WAL segment record and every replication message:
//
//	uvarint payload length | payload | crc32 (IEEE, little-endian) of payload
func AppendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+len(payload)+4)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// WriteString writes a length-prefixed string (uvarint + bytes).
func WriteString(w io.Writer, s string) error {
	if err := WriteUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// WriteValue writes a typed attribute value: one kind byte, then the
// kind-specific payload.
func WriteValue(w io.Writer, v graph.Value) error {
	if _, err := w.Write([]byte{byte(v.Kind())}); err != nil {
		return err
	}
	switch v.Kind() {
	case graph.KindString:
		return WriteString(w, v.Str())
	case graph.KindInt:
		return WriteUvarint(w, zigzag(v.IntVal()))
	case graph.KindFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.FloatVal()))
		_, err := w.Write(buf[:])
		return err
	case graph.KindBool:
		b := byte(0)
		if v.BoolVal() {
			b = 1
		}
		_, err := w.Write([]byte{b})
		return err
	default:
		return fmt.Errorf("storage: cannot encode value kind %v", v.Kind())
	}
}

func zigzag(i int64) uint64   { return uint64((i << 1) ^ (i >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func sortedKeys(a graph.Attrs) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

type crcReader struct {
	r   *bufio.Reader
	crc uint32
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.crc = crc32.Update(cr.crc, crc32.IEEETable, []byte{b})
	}
	return b, err
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

// ReadString reads a length-prefixed string, rejecting lengths beyond
// limit before allocating (decoders must stay panic- and OOM-free on
// corrupt input; recovery feeds them torn files).
func ReadString(r BinaryReader, limit uint64) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > limit {
		return "", fmt.Errorf("storage: string length %d exceeds sanity limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// ReadValue reads one typed attribute value written by WriteValue.
func ReadValue(r BinaryReader) (graph.Value, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return graph.Value{}, err
	}
	switch graph.ValueKind(kind) {
	case graph.KindString:
		s, err := ReadString(r, 1<<24)
		return graph.String(s), err
	case graph.KindInt:
		u, err := binary.ReadUvarint(r)
		return graph.Int(unzigzag(u)), err
	case graph.KindFloat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return graph.Value{}, err
		}
		return graph.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case graph.KindBool:
		b, err := r.ReadByte()
		return graph.Bool(b != 0), err
	default:
		return graph.Value{}, fmt.Errorf("storage: unknown value kind %d", kind)
	}
}

// allocHint caps count-prefix-driven allocations: counts are read from
// untrusted input before the elements that justify them, so a corrupt
// prefix must not translate into a multi-gigabyte make. Decoding appends
// past the hint just fine; a wrong hint only costs reallocation.
func allocHint(n uint64) int {
	const max = 1 << 20
	if n > max {
		return max
	}
	return int(n)
}

// Image format: the one binary graph format — the Store's binary files,
// the write-ahead log's snapshots and the replication snapshot installs.
// Unlike the JSON codec, which compacts tombstones and renumbers nodes,
// an image preserves the graph's exact in-memory identity: node ids
// (tombstones included), adjacency order, and the mutation version. WAL
// records logged after a snapshot reference original node ids, so
// checkpoints must not renumber.
//
//	magic "EXPI" | format version (uvarint) | graph version (uvarint)
//	max id (uvarint), then per id slot: alive byte (0|1),
//	  if alive: label | attr count | (key, value)*
//	edge count (uvarint), then per edge: from, to (raw ids, uvarints)
//	crc32 (IEEE, little-endian uint32) of everything before it
const (
	imageMagic   = "EXPI"
	imageVersion = 1
)

// ErrBadImage reports input that is not an ExpFinder graph image.
var ErrBadImage = errors.New("storage: not an ExpFinder graph image")

// WriteGraphImage encodes the exact in-memory image of g (ids,
// tombstones, adjacency order, version) with a trailing checksum. Two
// graphs with the same mutation history produce byte-identical images —
// the crash-recovery contract is stated in terms of this codec.
func WriteGraphImage(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := io.WriteString(cw, imageMagic); err != nil {
		return err
	}
	if err := WriteUvarint(cw, imageVersion); err != nil {
		return err
	}
	if err := WriteUvarint(cw, g.Version()); err != nil {
		return err
	}
	if err := WriteUvarint(cw, uint64(g.MaxID())); err != nil {
		return err
	}
	for id := 0; id < g.MaxID(); id++ {
		n, ok := g.Node(graph.NodeID(id))
		if !ok {
			if _, err := cw.Write([]byte{0}); err != nil {
				return err
			}
			continue
		}
		if _, err := cw.Write([]byte{1}); err != nil {
			return err
		}
		if err := WriteString(cw, n.Label); err != nil {
			return err
		}
		if err := WriteUvarint(cw, uint64(len(n.Attrs))); err != nil {
			return err
		}
		for _, k := range sortedKeys(n.Attrs) {
			if err := WriteString(cw, k); err != nil {
				return err
			}
			if err := WriteValue(cw, n.Attrs[k]); err != nil {
				return err
			}
		}
	}
	if err := WriteUvarint(cw, uint64(g.NumEdges())); err != nil {
		return err
	}
	var encErr error
	g.ForEachEdge(func(e graph.Edge) {
		if encErr != nil {
			return
		}
		if encErr = WriteUvarint(cw, uint64(e.From)); encErr != nil {
			return
		}
		encErr = WriteUvarint(cw, uint64(e.To))
	})
	if encErr != nil {
		return encErr
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.crc)
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadGraphImage decodes a graph image, verifying the checksum and
// restoring the recorded version. Corrupt or truncated input returns an
// error, never panics.
func ReadGraphImage(r io.Reader) (*graph.Graph, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("storage: read image magic: %w", err)
	}
	if string(magic) != imageMagic {
		return nil, ErrBadImage
	}
	ver, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	if ver != imageVersion {
		return nil, fmt.Errorf("%w: image format %d", ErrBadVersion, ver)
	}
	graphVersion, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	maxID, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	if maxID > 1<<31 {
		return nil, fmt.Errorf("storage: implausible max id %d", maxID)
	}
	g := graph.New(allocHint(maxID))
	for i := uint64(0); i < maxID; i++ {
		alive, err := cr.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("storage: image slot %d: %w", i, err)
		}
		switch alive {
		case 0:
			// Recreate the tombstone so later ids stay aligned.
			id := g.AddNode("", nil)
			if err := g.RemoveNode(id); err != nil {
				return nil, err
			}
		case 1:
			label, err := ReadString(cr, 1<<20)
			if err != nil {
				return nil, fmt.Errorf("storage: image node %d label: %w", i, err)
			}
			nAttrs, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, err
			}
			if nAttrs > 1<<16 {
				return nil, fmt.Errorf("storage: implausible attr count %d", nAttrs)
			}
			var attrs graph.Attrs
			if nAttrs > 0 {
				attrs = make(graph.Attrs, allocHint(nAttrs))
				for a := uint64(0); a < nAttrs; a++ {
					key, err := ReadString(cr, 1<<20)
					if err != nil {
						return nil, err
					}
					val, err := ReadValue(cr)
					if err != nil {
						return nil, err
					}
					attrs[key] = val
				}
			}
			g.AddNode(label, attrs)
		default:
			return nil, fmt.Errorf("storage: image slot %d: bad alive byte %d", i, alive)
		}
	}
	nEdges, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nEdges; i++ {
		from, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		to, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		if from > 1<<31 || to > 1<<31 {
			return nil, fmt.Errorf("storage: image edge %d: implausible ids %d->%d", i, from, to)
		}
		if err := g.AddEdge(graph.NodeID(from), graph.NodeID(to)); err != nil {
			return nil, fmt.Errorf("storage: image edge %d (%d->%d): %w", i, from, to, err)
		}
	}
	wantCRC := cr.crc
	var crcBuf [4]byte
	if _, err := io.ReadFull(cr.r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("storage: read image checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != wantCRC {
		return nil, ErrBadChecksum
	}
	g.RestoreVersion(graphVersion)
	return g, nil
}
