// Package fieldarith exercises the fieldarith analyzer: native operators
// on field.Element outside internal/field must be flagged, Element-method
// arithmetic and equality must not.
package fieldarith

import "repro/internal/field"

// Sink and SinkBool keep results alive so the fixture compiles.
var (
	Sink     field.Element
	SinkBool bool
)

// Bad trips every banned operator class.
func Bad(a, b field.Element) {
	Sink = a + b     // want "native + on field.Element"
	Sink = a - b     // want "native - on field.Element"
	Sink = a * b     // want "native * on field.Element"
	Sink = a / b     // want "native / on field.Element"
	Sink = a % b     // want "native % on field.Element"
	Sink = a << 3    // want "native << on field.Element"
	Sink = a ^ b     // want "native ^ on field.Element"
	SinkBool = a < b // want "native < on field.Element"
	a += b           // want "native += on field.Element"
	Sink = -a        // want "native unary - on field.Element"
	a++              // want "native ++ on field.Element"
	Sink = a
}

// Good is the sound idiom: Element methods and equality.
func Good(a, b field.Element) {
	Sink = a.Add(b).Mul(a.Sub(b)).Neg()
	SinkBool = a == b && b != field.Zero
	Sink = field.Element(3)
	Sink = field.New(uint64(a) + uint64(b)) // explicit widening then reduction is fine
}

// Suppressed demonstrates both directive placements.
func Suppressed(a, b field.Element) {
	//lint:ignore fieldarith fixture demonstrates an acknowledged unchecked add
	Sink = a + b
	Sink = a * b //lint:ignore fieldarith fixture demonstrates the same-line form
}
