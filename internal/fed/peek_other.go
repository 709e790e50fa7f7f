//go:build !unix || aix

package fed

func (c *memberConn) peekFD(uintptr) bool { c.live = true; return true }
