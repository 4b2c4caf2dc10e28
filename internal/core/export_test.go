package core

// ScanSlice exposes scanSlice to the external tests of this package.
const ScanSlice = scanSlice
