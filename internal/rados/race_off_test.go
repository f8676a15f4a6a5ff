//go:build !race

package rados

const raceEnabled = false
