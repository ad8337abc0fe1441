//go:build !linux

package main

import (
	"errors"
	"os/exec"
)

var errNoAffinity = errors.New("affinity: not supported on this platform")

func allowedCPUs() ([]int, error) { return nil, errNoAffinity }

func pinSelf([]int) error { return errNoAffinity }

func startPinned(cmd *exec.Cmd, _, _ []int) error { return errNoAffinity }
