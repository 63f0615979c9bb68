package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// stealSeconds is the host-wide steal time in /proc/stat, summed over
// CPUs, or 0 where it is not reported. A result carries how much of it
// fell in its run, as a sign of how busy the host's other tenants were.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		ticks, err := strconv.ParseFloat(fields[8], 64)
		if err != nil {
			return 0
		}
		return ticks / 100 // USER_HZ
	}
	return 0
}
