//go:build unix && !aix

package fed

import "syscall"

// peekFD peeks at the non-blocking socket: an open one with nothing to
// read answers EAGAIN at once.
func (c *memberConn) peekFD(fd uintptr) bool {
	_, _, err := syscall.Recvfrom(int(fd), c.peeked[:], syscall.MSG_PEEK)
	c.live = err == syscall.EAGAIN
	return true
}
