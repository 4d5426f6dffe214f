package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"expfinder/internal/graph"
)

// Format selects how graphs are written to disk.
type Format uint8

// Supported on-disk graph formats. FormatBinary files (.efb) hold the
// exact graph image (WriteGraphImage): ids, tombstones and version.
const (
	FormatJSON Format = iota
	FormatBinary
)

func (f Format) ext() string {
	if f == FormatBinary {
		return ".efb"
	}
	return ".json"
}

// Store errors.
var (
	ErrNotFound = errors.New("storage: not found")
	ErrBadName  = errors.New("storage: invalid name")
)

// Store is a directory-backed repository of named graphs. Layout:
//
//	<root>/graphs/<name>.json|.efb
type Store struct {
	root string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "graphs"), 0o755); err != nil {
		return nil, fmt.Errorf("storage: init graphs: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's base directory.
func (s *Store) Root() string { return s.root }

// ValidName rejects empty names and path traversal: names become file
// and directory names in the store and the write-ahead log, so they must
// not contain separators or dot-dot components.
func ValidName(name string) error {
	if name == "" || strings.ContainsAny(name, `/\`) || strings.Contains(name, "..") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// SaveGraph writes a named graph in the given format, atomically (write to
// a temp file, then rename).
func (s *Store) SaveGraph(name string, g *graph.Graph, format Format) error {
	if err := ValidName(name); err != nil {
		return err
	}
	path := filepath.Join(s.root, "graphs", name+format.ext())
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	var werr error
	if format == FormatBinary {
		werr = WriteGraphImage(tmp, g)
	} else {
		werr = g.WriteJSON(tmp)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("storage: save graph %q: %w", name, werr)
	}
	return os.Rename(tmp.Name(), path)
}

// LoadGraph reads a named graph, trying the binary format first. A binary
// file that is not a graph image (such as one written by the retired
// compacting codec) fails with ErrBadImage, wrapped with the name.
func (s *Store) LoadGraph(name string) (*graph.Graph, error) {
	if err := ValidName(name); err != nil {
		return nil, err
	}
	for _, format := range []Format{FormatBinary, FormatJSON} {
		path := filepath.Join(s.root, "graphs", name+format.ext())
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		defer f.Close()
		read := graph.ReadJSON
		if format == FormatBinary {
			read = ReadGraphImage
		}
		g, err := read(f)
		if err != nil {
			return nil, fmt.Errorf("storage: load graph %q: %w", name, err)
		}
		return g, nil
	}
	return nil, fmt.Errorf("%w: graph %q", ErrNotFound, name)
}

// ListGraphs returns the names of stored graphs, sorted.
func (s *Store) ListGraphs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "graphs"))
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
	for _, e := range entries {
		name := e.Name()
		for _, ext := range []string{".json", ".efb"} {
			if strings.HasSuffix(name, ext) {
				base := strings.TrimSuffix(name, ext)
				if !seen[base] {
					seen[base] = true
					names = append(names, base)
				}
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// DeleteGraph removes a named graph in all formats.
func (s *Store) DeleteGraph(name string) error {
	if err := ValidName(name); err != nil {
		return err
	}
	found := false
	for _, ext := range []string{".json", ".efb"} {
		err := os.Remove(filepath.Join(s.root, "graphs", name+ext))
		if err == nil {
			found = true
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	if !found {
		return fmt.Errorf("%w: graph %q", ErrNotFound, name)
	}
	return nil
}
