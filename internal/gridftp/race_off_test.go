//go:build !race

package gridftp

const raceEnabled = false
