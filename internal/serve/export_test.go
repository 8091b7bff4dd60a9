package serve

import "time"

// SetReadHeaderTimeout shortens the daemon's header-read deadline for
// daemons started afterwards and returns a func restoring the default.
func SetReadHeaderTimeout(d time.Duration) (restore func()) {
	old := readHeaderTimeout
	readHeaderTimeout = d
	return func() { readHeaderTimeout = old }
}
