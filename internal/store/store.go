// Package store implements the Data Manager's storage role (Section 6,
// Figure 1): durable, concurrency-safe maintenance of the social content
// graph behind the logical model, so the physical implementation is
// abstracted away from the layers above.
//
// The design is a classic snapshot + write-ahead log pair: mutations append
// JSON records to wal.jsonl before applying to the in-memory graph;
// Snapshot writes the full graph to snapshot.json and truncates the log;
// Open recovers by loading the snapshot and replaying the log, tolerating
// a torn final record (the crash case).
//
// All file IO flows through vfs.FS (enforced by the vfsseam analyzer), so
// the fault-injection harness can crash this store at every operation
// boundary exactly as it does the checkpoint/manifest machinery in this
// package's other files. An append is acknowledged only after fsync: a
// nil error from PutNode/PutLink/Remove* means the record survives a
// crash.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"socialscope/internal/graph"
	"socialscope/internal/vfs"
)

const (
	snapshotName = "snapshot.json"
	walName      = "wal.jsonl"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Store is a durable social content graph. Reads run under a shared lock;
// mutations serialize and hit the log before the graph.
type Store struct {
	mu     sync.RWMutex
	fsys   vfs.FS
	dir    string
	g      *graph.Graph
	wal    vfs.File
	walW   *bufio.Writer
	closed bool
	// appliedRecords counts log records since the last snapshot; exposed
	// for compaction policies.
	appliedRecords int
}

// record is one WAL entry. Exactly one of the payload fields is set.
type record struct {
	Op   string    `json:"op"` // putnode | putlink | delnode | dellink
	Node *nodeJSON `json:"node,omitempty"`
	Link *linkJSON `json:"link,omitempty"`
	ID   int64     `json:"id,omitempty"`
}

type nodeJSON struct {
	ID    graph.NodeID        `json:"id"`
	Types []string            `json:"types"`
	Attrs map[string][]string `json:"attrs,omitempty"`
}

type linkJSON struct {
	ID    graph.LinkID        `json:"id"`
	Src   graph.NodeID        `json:"src"`
	Tgt   graph.NodeID        `json:"tgt"`
	Types []string            `json:"types"`
	Attrs map[string][]string `json:"attrs,omitempty"`
}

// Open loads (or initializes) a store in dir on the real filesystem.
func Open(dir string) (*Store, error) {
	return OpenFS(vfs.OS{}, dir)
}

// OpenFS loads (or initializes) a store in dir through fsys: snapshot
// first, then WAL replay. A torn trailing WAL record — the crash
// signature — is discarded; any earlier corruption is an error.
func OpenFS(fsys vfs.FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	g := graph.New()
	snapPath := filepath.Join(dir, snapshotName)
	if data, err := vfs.ReadFile(fsys, snapPath); err == nil {
		loaded, derr := graph.Decode(bytes.NewReader(data))
		if derr != nil {
			return nil, fmt.Errorf("store: snapshot corrupt: %w", derr)
		}
		g = loaded
	} else if !vfs.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}

	walPath := filepath.Join(dir, walName)
	replayed, err := replay(fsys, walPath, g)
	if err != nil {
		return nil, err
	}
	wal, err := fsys.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{
		fsys: fsys, dir: dir, g: g, wal: wal, walW: bufio.NewWriter(wal),
		appliedRecords: replayed,
	}, nil
}

// replay applies WAL records to g. It returns the number applied. A
// decode error on the final record truncates the log to the last good
// prefix; a decode error earlier is fatal. Application errors (e.g. a link
// whose endpoint never existed) are fatal: they indicate a corrupt log,
// not a crash.
func replay(fsys vfs.FS, path string, g *graph.Graph) (int, error) {
	data, err := vfs.ReadFile(fsys, path)
	if vfs.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading wal: %w", err)
	}

	applied := 0
	var goodBytes int64
	for len(data) > 0 {
		line := data
		rest := []byte(nil)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, rest = data[:i], data[i+1:]
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn tail: only acceptable if nothing follows.
			if len(rest) > 0 {
				return 0, fmt.Errorf("store: wal corrupt mid-stream: %w", err)
			}
			if terr := fsys.Truncate(path, goodBytes); terr != nil {
				return 0, fmt.Errorf("store: truncating torn wal: %w", terr)
			}
			return applied, nil
		}
		if err := apply(g, rec); err != nil {
			return 0, fmt.Errorf("store: wal replay: %w", err)
		}
		goodBytes += int64(len(line)) + 1
		applied++
		data = rest
	}
	return applied, nil
}

func apply(g *graph.Graph, rec record) error {
	switch rec.Op {
	case "putnode":
		if rec.Node == nil {
			return fmt.Errorf("putnode without node")
		}
		n := graph.NewNode(rec.Node.ID, rec.Node.Types...)
		n.Attrs = graph.AttrsFromMap(rec.Node.Attrs)
		g.PutNode(n)
		return nil
	case "putlink":
		if rec.Link == nil {
			return fmt.Errorf("putlink without link")
		}
		l := graph.NewLink(rec.Link.ID, rec.Link.Src, rec.Link.Tgt, rec.Link.Types...)
		l.Attrs = graph.AttrsFromMap(rec.Link.Attrs)
		return g.PutLink(l)
	case "delnode":
		g.RemoveNode(graph.NodeID(rec.ID))
		return nil
	case "dellink":
		g.RemoveLink(graph.LinkID(rec.ID))
		return nil
	}
	return fmt.Errorf("unknown op %q", rec.Op)
}

// append writes a record to the WAL, makes it durable, then applies it.
// The fsync before returning is the durability barrier: a nil result
// promises the record survives a crash (this store once flushed without
// syncing, so "acknowledged" writes could vanish — the exact gap the
// fault harness now guards).
func (s *Store) append(rec record) error {
	if s.closed {
		return ErrClosed
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.walW.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("store: wal write: %w", err)
	}
	if err := s.walW.Flush(); err != nil {
		return fmt.Errorf("store: wal flush: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	if err := apply(s.g, rec); err != nil {
		return err
	}
	s.appliedRecords++
	return nil
}

// PutNode durably inserts or consolidates a node.
func (s *Store) PutNode(n *graph.Node) error {
	if n == nil {
		return graph.ErrNilElement
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(record{Op: "putnode", Node: &nodeJSON{ID: n.ID, Types: n.Types, Attrs: n.Attrs.Map()}})
}

// PutLink durably inserts or consolidates a link; endpoints must exist.
func (s *Store) PutLink(l *graph.Link) error {
	if l == nil {
		return graph.ErrNilElement
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.g.HasNode(l.Src) || !s.g.HasNode(l.Tgt) {
		return fmt.Errorf("%w: link %d (%d->%d)", graph.ErrMissingEnd, l.ID, l.Src, l.Tgt)
	}
	return s.append(record{Op: "putlink", Link: &linkJSON{
		ID: l.ID, Src: l.Src, Tgt: l.Tgt, Types: l.Types, Attrs: l.Attrs.Map(),
	}})
}

// RemoveNode durably removes a node and its incident links.
func (s *Store) RemoveNode(id graph.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(record{Op: "delnode", ID: int64(id)})
}

// RemoveLink durably removes a link.
func (s *Store) RemoveLink(id graph.LinkID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(record{Op: "dellink", ID: int64(id)})
}

// View runs fn with shared read access to the graph. The graph must not be
// mutated or retained past fn.
func (s *Store) View(fn func(*graph.Graph)) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	fn(s.g)
	return nil
}

// Graph returns an isolated deep copy of the current graph for long-lived
// analysis (the Content Analyzer's input).
func (s *Store) Graph() (*graph.Graph, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.g.Clone(), nil
}

// PendingRecords reports WAL records since the last snapshot.
func (s *Store) PendingRecords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appliedRecords
}

// Snapshot writes the full graph to snapshot.json (atomically via
// sync-then-rename) and truncates the WAL — log compaction. The open
// append handle stays valid across the truncate: it is in O_APPEND mode,
// so the next record lands at the new end of file.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := s.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.g.Encode(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: snapshot encode: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.fsys.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Truncate the log now that the snapshot covers it.
	if err := s.fsys.Truncate(filepath.Join(s.dir, walName), 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walW.Reset(s.wal)
	s.appliedRecords = 0
	return nil
}

// Close flushes, syncs and closes the WAL, surfacing any error on the
// way out — on a writable log the Close result is the write's fate.
// Further operations fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.walW.Flush(); err != nil {
		_ = s.wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		_ = s.wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	return s.wal.Close()
}
