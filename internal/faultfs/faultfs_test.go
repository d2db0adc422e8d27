package faultfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriterFaultsAtLimit(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf, Limit: 5}
	n, err := w.Write([]byte("abc"))
	if n != 3 || err != nil {
		t.Fatalf("under limit: n=%d err=%v", n, err)
	}
	n, err = w.Write([]byte("defg"))
	if n != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing write: n=%d err=%v, want short write + ErrInjected", n, err)
	}
	if buf.String() != "abcde" {
		t.Fatalf("buffer = %q, want the 5-byte prefix", buf.String())
	}
	// Every write after the fault keeps failing.
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-fault write error = %v", err)
	}
}

func TestWriterCustomError(t *testing.T) {
	sentinel := errors.New("ENOSPC")
	w := &Writer{W: io.Discard, Limit: 0, Err: sentinel}
	if _, err := w.Write([]byte("x")); !errors.Is(err, sentinel) {
		t.Fatalf("error = %v, want the injected sentinel", err)
	}
}

func TestWriterUnlimited(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf, Limit: -1}
	if _, err := w.Write(bytes.Repeat([]byte("y"), 1<<16)); err != nil {
		t.Fatal(err)
	}
	if w.Written() != 1<<16 {
		t.Fatalf("written = %d", w.Written())
	}
}

func TestReaderTruncates(t *testing.T) {
	r := &Reader{R: bytes.NewReader([]byte("0123456789")), Limit: 4, Err: io.ErrUnexpectedEOF}
	got, err := io.ReadAll(r)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error = %v", err)
	}
	if string(got) != "0123" {
		t.Fatalf("read %q, want the 4-byte prefix", got)
	}
}

func TestFSWriteLimitIsGlobalAcrossWrites(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS()
	fsys.WriteLimit = 6
	f, err := fsys.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("1234")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("5678")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second write error = %v, want ErrInjected", err)
	}
	f.Close()
	data, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "123456" {
		t.Fatalf("on-disk bytes %q, want the 6-byte prefix", data)
	}
}

func TestFSOperationFaults(t *testing.T) {
	dir := t.TempDir()
	if _, err := (&FS{WriteLimit: -1, FailCreate: true}).Create(filepath.Join(dir, "x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("create error = %v", err)
	}
	fsys := &FS{WriteLimit: -1, FailSync: true}
	f, err := fsys.Create(filepath.Join(dir, "y"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync error = %v", err)
	}
	f.Close()
	if err := (&FS{WriteLimit: -1, FailRename: true}).Rename(filepath.Join(dir, "y"), filepath.Join(dir, "z")); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename error = %v", err)
	}
	if err := (&FS{WriteLimit: -1, FailSyncDir: true}).SyncDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("syncdir error = %v", err)
	}
}

func TestFlipBitAndTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte{0x00, 0xFF}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(path, 9); err != nil { // bit 1 of byte 1
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if data[0] != 0x00 || data[1] != 0xFD {
		t.Fatalf("bytes after flip = %x", data)
	}
	if err := FlipBit(path, 16); err == nil {
		t.Fatal("out-of-range bit accepted")
	}
	if err := TruncateFile(path, 1); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if len(data) != 1 {
		t.Fatalf("len after truncate = %d", len(data))
	}
}

// Writer passes bytes through to W until Limit bytes have been
// written, then fails: the write that crosses the limit is a short
// write (the prefix up to the limit reaches W) and returns Err. A
// negative Limit never faults.
type Writer struct {
	W       io.Writer
	Limit   int   // total bytes allowed through (-1 = unlimited)
	Err     error // error at the fault point (nil = ErrInjected)
	written int
}

// Written returns the bytes that actually reached W.
func (w *Writer) Written() int { return w.written }

func (w *Writer) Write(p []byte) (int, error) {
	if w.Limit < 0 || w.written+len(p) <= w.Limit {
		n, err := w.W.Write(p)
		w.written += n
		return n, err
	}
	allowed := w.Limit - w.written
	if allowed < 0 {
		allowed = 0
	}
	n, err := w.W.Write(p[:allowed])
	w.written += n
	if err == nil {
		err = w.errOr()
	}
	return n, err
}

func (w *Writer) errOr() error {
	if w.Err != nil {
		return w.Err
	}
	return ErrInjected
}

// Reader yields at most Limit bytes from R, then returns Err (use
// io.ErrUnexpectedEOF or io.EOF to model truncation). A negative Limit
// never faults.
type Reader struct {
	R     io.Reader
	Limit int
	Err   error
	read  int
}

func (r *Reader) Read(p []byte) (int, error) {
	if r.Limit >= 0 {
		if remaining := r.Limit - r.read; remaining < len(p) {
			p = p[:remaining]
		}
	}
	if len(p) == 0 {
		if r.Err != nil {
			return 0, r.Err
		}
		return 0, ErrInjected
	}
	n, err := r.R.Read(p)
	r.read += n
	return n, err
}
