// Package store is a content-addressed, append-only result store for
// campaign points. Records are addressed by a Key — the SHA-256 of a salt
// plus the canonical-JSON form of the record's identity value (for
// campaigns: the fully expanded RunSpec and the engine version, see
// slimnoc.PointKey) — and persisted as one JSON line each, so a store file
// is both crash-tolerant and trivially inspectable with line tools.
//
// The durability contract is what makes campaigns resumable: Put appends
// and syncs a record before returning, Open replays the file and recovers
// from a torn or corrupted tail (dropping only unreadable lines), and a key
// present in the store is served instead of recomputed. Because keys hash
// the complete point identity, a store can be shared by any number of
// sweeps and figures — identical points are computed once, and results
// from an incompatible engine generation never collide with current ones
// (the engine version participates in the hash).
//
// # Concurrency
//
// A Store is safe for concurrent use by any number of goroutines. Appends
// serialize on a writer mutex that is held across the write and the fsync;
// the in-memory index has its own mutex, held only to read or update the
// map, so a Get never waits on a disk sync (pinned by
// TestStoreGetDuringPutSync). Readers see either the state before a
// concurrent Put or the state after it, never a torn record. The intended
// access pattern is read-mostly — many goroutines Get cached results while
// an occasional writer Puts new ones (a campaign filling in missing points,
// a serve session caching a fresh estimate) — and that pattern is pinned
// under the race detector by TestStoreConcurrentReadMostly. Puts are
// durable before they are visible: a record enters the index only after
// its sync returns, so a Get can only return a value that is on disk.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Key is the content address of one record: the lowercase-hex SHA-256 of
// the salted canonical identity bytes. Keys are comparable and safe to use
// as map keys and file names.
type Key string

// KeyOf computes the content address of v under the given salt. The salt
// partitions the key space (e.g. by engine version or record schema) so
// values hashed under different salts can never alias. The hash input is
//
//	salt '\n' canonical(v)
//
// with canonical as defined by Canonical: field order never matters, so a
// struct reordering cannot silently change keys (pinned by the golden
// fixtures in the slimnoc package).
func KeyOf(salt string, v any) (Key, error) {
	data, err := Canonical(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(salt))
	h.Write([]byte{'\n'})
	h.Write(data)
	return Key(hex.EncodeToString(h.Sum(nil))), nil
}

// record is the JSONL on-disk form of one store entry.
type record struct {
	Key   Key             `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Store is a JSONL-backed key-value store of computed results. It is safe
// for concurrent use: campaign workers Put from multiple goroutines while
// others Get. A Store holds its file open for appending until Close.
type Store struct {
	path string

	// wmu serializes appends and Close; it guards the file and its size.
	wmu sync.Mutex
	f   *os.File
	// size is the byte length of the durable, fully terminated records —
	// the rollback point when an append fails partway.
	size int64
	// sync makes an appended record durable; tests substitute it to hold a
	// Put inside its sync.
	sync func(*os.File) error

	// mu guards the index and the recovery count; it is never held across
	// file I/O.
	mu        sync.Mutex
	index     map[Key]json.RawMessage
	recovered int
}

// Open loads (or creates) the store at path, replaying its JSONL records
// into memory. Lines that fail to parse — a tail torn by a crash mid-append,
// or corruption — are dropped and counted in Recovered, and the file is
// compacted to its valid records so subsequent appends stay readable. When
// the same key appears on multiple lines the last one wins.
func Open(path string) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", path, err)
		}
	}
	s := &Store{path: path, index: make(map[Key]json.RawMessage), sync: (*os.File).Sync}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	var valid bytes.Buffer
	if len(data) > 0 {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 64<<20)
		complete := bytes.HasSuffix(data, []byte{'\n'})
		var lines [][]byte
		for sc.Scan() {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", path, err)
		}
		for i, line := range lines {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var r record
			if err := json.Unmarshal(line, &r); err != nil || r.Key == "" || len(r.Value) == 0 {
				s.recovered++
				continue
			}
			if i == len(lines)-1 && !complete {
				// A final line without its newline is a torn append: the
				// bytes may be a prefix of a longer record that happens to
				// parse. Drop it; the point is simply recomputed.
				s.recovered++
				continue
			}
			s.index[r.Key] = r.Value
			valid.Write(line)
			valid.WriteByte('\n')
		}
	}
	if s.recovered > 0 {
		// Compact away the unreadable lines so the next reader sees a clean
		// file. Write-then-rename keeps the store valid even if this
		// recovery itself is interrupted.
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, valid.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("store: recovering %s: %w", path, err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, fmt.Errorf("store: recovering %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s.f = f
	s.size = int64(valid.Len())
	if s.recovered == 0 {
		s.size = int64(len(data))
	}
	return s, nil
}

// Get returns the stored value for key, if present. The returned bytes are
// shared — callers must not modify them.
func (s *Store) Get(key Key) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.index[key]
	return v, ok
}

// Put stores value under key, appending one durable JSONL record. A put of
// bytes identical to the stored value is a no-op, so re-running a fully
// cached campaign never grows the file; a put of different bytes appends a
// superseding record (last record wins on replay).
func (s *Store) Put(key Key, value json.RawMessage) error {
	if key == "" {
		return fmt.Errorf("store: put with empty key")
	}
	line, err := json.Marshal(record{Key: key, Value: value})
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// Only appends change the index, and they all hold wmu, so the value
	// read here stays current until this Put returns.
	s.mu.Lock()
	old, ok := s.index[key]
	s.mu.Unlock()
	if ok && bytes.Equal(old, value) {
		return nil
	}
	if s.f == nil {
		return fmt.Errorf("store: put on closed or failed store %s", s.path)
	}
	rec := append(line, '\n')
	_, werr := s.f.Write(rec)
	if werr == nil {
		werr = s.sync(s.f)
	}
	if werr != nil {
		// A short write may have left an unterminated partial line, and an
		// unsynced record is not durable either way: roll the file back to
		// the last durable record so later appends do not merge onto
		// leftover bytes (and so size stays in lockstep with the file). If
		// even the rollback fails, poison the store: further Puts error
		// instead of silently reporting unrecoverable records as stored.
		if terr := s.f.Truncate(s.size); terr != nil {
			s.f.Close()
			s.f = nil
		}
		return fmt.Errorf("store: put: %w", werr)
	}
	s.size += int64(len(rec))
	stored := append(json.RawMessage(nil), value...)
	s.mu.Lock()
	s.index[key] = stored
	s.mu.Unlock()
	return nil
}

// Len returns the number of distinct keys currently stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Recovered returns how many unreadable lines Open dropped while replaying
// the file — nonzero after recovering from a crash mid-append.
func (s *Store) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Close releases the append handle. Get keeps working on the in-memory
// index; Put fails after Close.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
