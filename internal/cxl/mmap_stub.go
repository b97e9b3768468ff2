//go:build !unix

package cxl

import (
	"errors"
	"os"
)

// The mmap backend needs a POSIX mmap; on other platforms only the heap
// backend is available, and no pool outlives its process.
var errNoMmap = errors.New("cxl: mmap pool files are not supported on this platform")

func mmapFile(f *os.File, size int) ([]byte, error) { return nil, errNoMmap }

func mmapFileReadOnly(f *os.File, size int) ([]byte, error) { return nil, errNoMmap }

func munmap(data []byte) error { return errNoMmap }

func msync(data []byte) error { return errNoMmap }
