//go:build !(linux || darwin)

package vodserver

// rawWrites is false here: a Windows socket is an overlapped handle, which
// a plain write must not touch, so every frame queues for the handler.
const rawWrites = false

// iovec and the functions below only let subscriber.WriteDirect compile;
// no connection lends its raw access here, so they are never called.
type iovec struct{}

func makeIovec([]byte) iovec { return iovec{} }

func writev(uintptr, []iovec) int { return 0 }
