package main

import (
	"io"
	"net"
	"time"
)

// This file calibrates the kernel's share: loops over one loopback TCP pair
// that run no code of this repository. On loopback the receive side of TCP
// runs inside the sender's write call, which is why the server's system
// time is what it is; these figures are the floor under it.

const (
	kernelWrites  = 20000
	kernelAccepts = 2000
)

// kernelCosts are mean wall times per call, in microseconds, measured on the
// driver's CPU with nothing else running.
type kernelCosts struct {
	WriteUs, ReadUs, AcceptCloseUs float64
}

// calibrateKernel times write and read calls carrying frameBytes (the
// server's mean bytes per write in the live run), then accept plus close of
// an already-established connection.
func calibrateKernel(frameBytes int) (kernelCosts, error) {
	var k kernelCosts
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return k, err
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return k, err
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		return k, err
	}
	defer server.Close()

	// Each frame is written, then read back on the other end, so the socket
	// buffer never fills and neither call blocks.
	frame := make([]byte, max(frameBytes, 1))
	sink := make([]byte, len(frame))
	var writeNs, readNs time.Duration
	for i := 0; i < kernelWrites; i++ {
		t0 := time.Now()
		if _, err := server.Write(frame); err != nil {
			return k, err
		}
		t1 := time.Now()
		if _, err := io.ReadFull(client, sink); err != nil {
			return k, err
		}
		writeNs += t1.Sub(t0)
		readNs += time.Since(t1)
	}
	k.WriteUs = float64(writeNs) / kernelWrites / 1e3
	k.ReadUs = float64(readNs) / kernelWrites / 1e3

	var acceptNs time.Duration
	for i := 0; i < kernelAccepts; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return k, err
		}
		// The handshake completed in the backlog; Accept does not wait.
		t0 := time.Now()
		s, err := ln.Accept()
		if err == nil {
			err = s.Close()
		}
		acceptNs += time.Since(t0)
		c.Close()
		if err != nil {
			return k, err
		}
	}
	k.AcceptCloseUs = float64(acceptNs) / kernelAccepts / 1e3
	return k, nil
}
