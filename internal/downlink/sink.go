package downlink

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/flightlog"
)

// DirSink materializes delivered downlink messages as a ground station
// directory, the layout both cmd/adaptlink and adaptstream -downlink emit:
//
//	alerts.jsonl        one alert record per line, in delivery order
//	skymap-NNNN.b64     one encoded sky-map payload per message
//	scorecard-NNNN.json one scorecard per message
//	journal/            reassembled flight journal (delta batches decoded
//	                    back to records and re-journaled via flightlog)
//
// Messages arrive in per-class msgID order (the Reassembler's delivery
// contract), so the reassembled journal's record order — and therefore its
// segment bytes — matches the onboard original exactly.
type DirSink struct {
	dir     string
	alerts  *os.File
	journal *flightlog.Journal
	segment int
	err     error

	// Delivered counts messages accepted per class.
	Delivered [NumClasses]int
	// JournalRecords counts decoded journal records appended.
	JournalRecords int
}

// NewDirSink creates dir (and parents) and returns an empty sink.
// segmentBytes sets the reassembled journal's segment size; it must match
// the onboard journal's for byte-identical segment files (0 = the
// flightlog default).
func NewDirSink(dir string, segmentBytes int) (*DirSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirSink{dir: dir, segment: segmentBytes}, nil
}

// OnMessage routes one delivered message to its ground artifact. It has the
// Session/Reassembler OnMessage shape; the first failure latches into Err
// and subsequent messages are dropped.
func (s *DirSink) OnMessage(class Class, msgID uint32, payload []byte, _ float64) {
	if s.err != nil {
		return
	}
	switch class {
	case ClassAlert:
		if s.alerts == nil {
			f, err := os.Create(filepath.Join(s.dir, "alerts.jsonl"))
			if err != nil {
				s.err = err
				return
			}
			s.alerts = f
		}
		if len(payload) == 0 || payload[len(payload)-1] != '\n' {
			payload = append(append([]byte(nil), payload...), '\n')
		}
		_, s.err = s.alerts.Write(payload)
	case ClassSkyMap:
		s.err = os.WriteFile(filepath.Join(s.dir, fmt.Sprintf("skymap-%04d.b64", msgID)), payload, 0o644)
	case ClassScorecard:
		s.err = os.WriteFile(filepath.Join(s.dir, fmt.Sprintf("scorecard-%04d.json", msgID)), payload, 0o644)
	case ClassJournal:
		if s.journal == nil {
			j, err := flightlog.Open(flightlog.Options{
				Dir:          filepath.Join(s.dir, "journal"),
				SegmentBytes: int64(s.segment),
			})
			if err != nil {
				s.err = err
				return
			}
			s.journal = j
		}
		records, err := DecodeRecords(payload)
		if err != nil {
			s.err = fmt.Errorf("downlink: ground decode of journal msg %d: %w", msgID, err)
			return
		}
		if err := s.journal.AppendBatch(records); err != nil {
			s.err = err
			return
		}
		s.JournalRecords += len(records)
	default:
		s.err = fmt.Errorf("downlink: delivered message of unknown class %d", class)
		return
	}
	if s.err == nil {
		s.Delivered[class]++
	}
}

// Err returns the first failure, if any.
func (s *DirSink) Err() error { return s.err }

// Close flushes and closes the ground artifacts, returning the first error
// seen over the sink's lifetime.
func (s *DirSink) Close() error {
	if s.alerts != nil {
		if err := s.alerts.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.alerts = nil
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.journal = nil
	}
	return s.err
}
