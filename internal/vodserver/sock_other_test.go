//go:build !(linux || darwin)

package vodserver

import "testing"

func setSendBuffer(t *testing.T, _, _ int) { t.Skip(errUnsupported) }

func fullPipe(t *testing.T) int {
	t.Skip(errUnsupported)
	return -1
}
