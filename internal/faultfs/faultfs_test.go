package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

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
