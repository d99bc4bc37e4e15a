//go:build !linux || arm

package server

import "os"

// startWriteBack is a no-op where Go's syscall package has no
// sync_file_range (every OS but Linux, and linux/arm): the fsync before
// the rename writes the whole key file back.
func startWriteBack(f *os.File, off, n int64) {}
