package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"daasscale/internal/fsio"
)

// ramFS is the serve workloads' ledger filesystem: files live in memory
// and Sync returns at once. On a VM with a shared disk (measured: a
// 2-CPU Xeon VM on virtio) fsync latency moved 7× between identical
// runs, which would decide the serve figures; on ramFS they measure the
// daemon's own work. Every Sync call still happens and is counted
// (ledger.syncs_per_request), and traced runs time fsync on the real
// disk separately (ledger.fsync_us).
//
// Writes append into a growable buffer, so a ledger costs what the
// daemon's bytes cost, not a copy per write.
type ramFS struct {
	mu    sync.RWMutex
	files map[string]*ramNode
	dirs  map[string]bool
	tmp   int
}

type ramNode struct {
	mu   sync.Mutex
	data []byte
	mode os.FileMode
}

func newRAMFS() *ramFS {
	return &ramFS{files: map[string]*ramNode{}, dirs: map[string]bool{"/": true}}
}

func (r *ramFS) node(name string) (*ramNode, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.files[filepath.Clean(name)]
	return n, ok
}

func (r *ramFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	name = filepath.Clean(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		if !r.dirs[filepath.Dir(name)] {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		n = &ramNode{mode: perm}
		r.files[name] = n
	case flag&os.O_TRUNC != 0:
		n.mu.Lock()
		n.data = n.data[:0]
		n.mu.Unlock()
	}
	f := &ramFile{node: n, name: name}
	if flag&os.O_APPEND != 0 {
		n.mu.Lock()
		f.pos = int64(len(n.data))
		n.mu.Unlock()
	}
	return f, nil
}

func (r *ramFS) CreateTemp(dir, pattern string) (fsio.File, error) {
	r.mu.Lock()
	r.tmp++
	name := filepath.Join(dir, strings.Replace(pattern, "*", fmt.Sprint(r.tmp), 1))
	r.mu.Unlock()
	return r.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
}

func (r *ramFS) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.files[filepath.Clean(oldpath)]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(r.files, filepath.Clean(oldpath))
	r.files[filepath.Clean(newpath)] = n
	return nil
}

func (r *ramFS) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.files[filepath.Clean(name)]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(r.files, filepath.Clean(name))
	return nil
}

func (r *ramFS) ReadFile(name string) ([]byte, error) {
	n, ok := r.node(name)
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]byte(nil), n.data...), nil
}

func (r *ramFS) ReadDir(name string) ([]os.DirEntry, error) {
	name = filepath.Clean(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.dirs[name] {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrNotExist}
	}
	var out []os.DirEntry
	for path, n := range r.files {
		if filepath.Dir(path) == name {
			n.mu.Lock()
			out = append(out, ramEntry{name: filepath.Base(path), size: int64(len(n.data)), mode: n.mode})
			n.mu.Unlock()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (r *ramFS) MkdirAll(path string, _ os.FileMode) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for p := filepath.Clean(path); !r.dirs[p]; p = filepath.Dir(p) {
		r.dirs[p] = true
	}
	return nil
}

func (r *ramFS) SyncDir(string) error { return nil }

// ramFile is an open handle with its own offset.
type ramFile struct {
	node *ramNode
	name string
	pos  int64
}

func (f *ramFile) Read(p []byte) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.pos >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *ramFile) Write(p []byte) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	end := f.pos + int64(len(p))
	if end > int64(len(f.node.data)) {
		if end > int64(cap(f.node.data)) {
			grown := make([]byte, len(f.node.data), max(end, 2*int64(cap(f.node.data))))
			copy(grown, f.node.data)
			f.node.data = grown
		}
		f.node.data = f.node.data[:end]
	}
	copy(f.node.data[f.pos:end], p)
	f.pos = end
	return len(p), nil
}

func (f *ramFile) Seek(offset int64, whence int) (int64, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += f.pos
	case io.SeekEnd:
		offset += int64(len(f.node.data))
	default:
		return 0, fmt.Errorf("ramfs: bad whence %d", whence)
	}
	if offset < 0 {
		return 0, fmt.Errorf("ramfs: negative seek position")
	}
	f.pos = offset
	return offset, nil
}

func (f *ramFile) Name() string { return f.name }

func (f *ramFile) Stat() (os.FileInfo, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	return ramEntry{name: filepath.Base(f.name), size: int64(len(f.node.data)), mode: f.node.mode}, nil
}

func (f *ramFile) Sync() error { return nil }

func (f *ramFile) Truncate(size int64) error {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if size < int64(len(f.node.data)) {
		f.node.data = f.node.data[:size]
	}
	return nil
}

func (f *ramFile) Chmod(mode os.FileMode) error {
	f.node.mu.Lock()
	f.node.mode = mode
	f.node.mu.Unlock()
	return nil
}

func (f *ramFile) Close() error { return nil }

// ramEntry is both the os.FileInfo and the os.DirEntry of a file.
type ramEntry struct {
	name string
	size int64
	mode os.FileMode
}

func (e ramEntry) Name() string               { return e.name }
func (e ramEntry) Size() int64                { return e.size }
func (e ramEntry) Mode() os.FileMode          { return e.mode }
func (e ramEntry) ModTime() time.Time         { return time.Time{} }
func (e ramEntry) IsDir() bool                { return false }
func (e ramEntry) Sys() any                   { return nil }
func (e ramEntry) Type() os.FileMode          { return 0 }
func (e ramEntry) Info() (os.FileInfo, error) { return e, nil }
