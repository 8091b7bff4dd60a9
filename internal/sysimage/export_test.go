package sysimage

// Hooks for the external test package, which needs corpus and inject
// (both import sysimage) to generate images.
var (
	DecodeImage       = decodeImage
	DecodeJSONReflect = decodeJSONReflect
)
