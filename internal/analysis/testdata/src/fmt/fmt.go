// Package fmt is a fixture stub: just enough surface for the vetleaky
// fixture to resolve fmt.Sprintf under the loader's no-stdlib rule.
package fmt

// Sprintf formats according to a format specifier and returns the string.
func Sprintf(format string, a ...interface{}) string { return format }
