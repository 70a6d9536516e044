package influence

import "fmt"

// Level identifies an FCM hierarchy level (Fig. 1).
type Level int

// FCM hierarchy levels, lowest first.
const (
	// ProcedureLevel is the lowest level: named callable modules.
	ProcedureLevel Level = iota + 1
	// TaskLevel is the middle level: lightweight threads.
	TaskLevel
	// ProcessLevel is the top level: heavyweight processes.
	ProcessLevel
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case ProcedureLevel:
		return "procedure"
	case TaskLevel:
		return "task"
	case ProcessLevel:
		return "process"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Valid reports whether l is a defined level.
func (l Level) Valid() bool { return l >= ProcedureLevel && l <= ProcessLevel }
