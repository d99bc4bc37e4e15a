//go:build linux && !arm

package server

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE from <linux/fs.h>: start
// write-back of the dirty pages in the range, without waiting for any.
const syncFileRangeWrite = 0x2

// startWriteBack asks the kernel to start writing f's bytes [off, off+n)
// to the device. Its error is ignored: it is only a head start for the
// fsync that follows, which writes whatever this did not and stays the
// one durability point whose failure fails the Put.
func startWriteBack(f *os.File, off, n int64) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	})
}
