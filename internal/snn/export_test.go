package snn

// SetExportHook installs f as the hook Graph calls with every exporting
// simulator (nil removes it), for the external frozen-layout test.
func SetExportHook(f func(*Sim)) { exportHook = f }

// CheckFrozen is checkFrozen for the external frozen-layout test.
var CheckFrozen = checkFrozen
