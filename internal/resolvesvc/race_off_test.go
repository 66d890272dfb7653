//go:build !race

package resolvesvc

const raceEnabled = false
