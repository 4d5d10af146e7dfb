//go:build !linux

package main

import "time"

// processCPU is not measured off Linux; go.cpu_ms_per_op reads 0 there.
func processCPU() time.Duration { return 0 }

func fsType(string) string { return "unknown" }
