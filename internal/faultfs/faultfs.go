// Package faultfs injects storage faults — short writes, ENOSPC-style
// errors, truncation, bit flips, failed fsyncs and renames — so tests
// can prove the crash-safety invariant of the persistence layer: after
// any injected fault, a load either restores a fully consistent
// snapshot or returns a clean error leaving the previous on-disk state
// intact; it never half-applies.
//
// FS is a checkpoint.FS implementation over the real file system with
// per-operation fault points. Corrupt and TruncateFile mutate files
// already on disk to model at-rest corruption.
package faultfs

import (
	"errors"
	"io"
	"os"

	"tgopt/internal/checkpoint"
)

// ErrInjected is the default error returned at an injected fault
// point. It deliberately resembles a device-level failure (ENOSPC, I/O
// error) in that it carries no recovery hint.
var ErrInjected = errors.New("faultfs: injected fault")

// FS is a checkpoint.FS over the real file system with injectable
// fault points. The zero value (with WriteLimit -1… see NewFS) passes
// everything through; set exactly the faults a test needs.
type FS struct {
	// WriteLimit bounds the total bytes written across all files
	// created through this FS (-1 = unlimited). The crossing write is
	// short and returns WriteErr (default ErrInjected), modeling a
	// full disk or a crash mid-write.
	WriteLimit int
	WriteErr   error
	// FailCreate / FailSync / FailRename / FailSyncDir / FailMkdirAll
	// make the corresponding operation return ErrInjected.
	FailCreate   bool
	FailSync     bool
	FailRename   bool
	FailSyncDir  bool
	FailMkdirAll bool

	written int
}

// NewFS returns a pass-through FS (WriteLimit -1, no faults).
func NewFS() *FS { return &FS{WriteLimit: -1} }

type faultFile struct {
	f  *os.File
	fs *FS
}

func (fs *FS) Create(name string) (checkpoint.File, error) {
	if fs.FailCreate {
		return nil, ErrInjected
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, fs: fs}, nil
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fs := ff.fs
	if fs.WriteLimit < 0 || fs.written+len(p) <= fs.WriteLimit {
		n, err := ff.f.Write(p)
		fs.written += n
		return n, err
	}
	allowed := fs.WriteLimit - fs.written
	if allowed < 0 {
		allowed = 0
	}
	n, err := ff.f.Write(p[:allowed])
	fs.written += n
	if err == nil {
		if fs.WriteErr != nil {
			err = fs.WriteErr
		} else {
			err = ErrInjected
		}
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	if ff.fs.FailSync {
		return ErrInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

func (fs *FS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (fs *FS) Rename(oldpath, newpath string) error {
	if fs.FailRename {
		return ErrInjected
	}
	return os.Rename(oldpath, newpath)
}

func (fs *FS) Remove(name string) error { return os.Remove(name) }

func (fs *FS) SyncDir(dir string) error {
	if fs.FailSyncDir {
		return ErrInjected
	}
	return checkpoint.OS{}.SyncDir(dir)
}

func (fs *FS) MkdirAll(dir string, perm os.FileMode) error {
	if fs.FailMkdirAll {
		return ErrInjected
	}
	return os.MkdirAll(dir, perm)
}

// FlipBit flips one bit of the file at path in place, modeling at-rest
// corruption. bit counts from the start of the file (bit 0 is the LSB
// of byte 0); it must fall inside the file.
func FlipBit(path string, bit int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if bit < 0 || bit >= int64(len(data))*8 {
		return errors.New("faultfs: bit offset outside file")
	}
	data[bit/8] ^= 1 << (bit % 8)
	return os.WriteFile(path, data, 0o644)
}

// TruncateFile cuts the file at path down to n bytes, modeling a torn
// write that a non-atomic writer would have left behind.
func TruncateFile(path string, n int64) error {
	return os.Truncate(path, n)
}
