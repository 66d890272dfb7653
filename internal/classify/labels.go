// Package classify implements steps ❺ and ❻ of the processing chain:
// clustering of the acquired HTTP payloads (via the cluster package) and
// the labeling that maps clusters onto the paper's response categories —
// Blocking, Censorship, HTTP Error, Login, Misc, Parking, and Search
// (Table 5) — plus the case-study detectors of §4.3 (ad manipulation,
// transparent proxies, phishing, mail interception, malware delivery).
package classify

import (
	"strings"

	"goingwild/internal/htmlx"
)

// Label is a response category of Table 5.
type Label uint8

// Response labels. LNoPayload covers the 11.1% of tuples without HTTP
// data, which the table's percentages exclude.
const (
	LNoPayload Label = iota
	LBlocking
	LCensorship
	LHTTPError
	LLogin
	LMisc
	LParking
	LSearch
)

// TableLabels lists the seven Table-5 rows in the paper's order.
var TableLabels = []Label{LBlocking, LCensorship, LHTTPError, LLogin, LMisc, LParking, LSearch}

// String names the label as in Table 5.
func (l Label) String() string {
	switch l {
	case LNoPayload:
		return "No payload"
	case LBlocking:
		return "Blocking"
	case LCensorship:
		return "Censorship"
	case LHTTPError:
		return "HTTP Error"
	case LLogin:
		return "Login"
	case LMisc:
		return "Misc."
	case LParking:
		return "Parking"
	case LSearch:
		return "Search"
	default:
		return "Unknown"
	}
}

// LabelPage is the analyst heuristic applied to a cluster representative:
// the manual labeling of §3.6 distilled into text and structure rules.
func LabelPage(status int, body string, f *htmlx.Features) Label {
	lower := strings.ToLower(body)
	title := strings.ToLower(f.Title)

	// Censorship: the paper flags landing pages by "blocked by the
	// order of [...] court/authority" fragments.
	if strings.Contains(lower, "blocked by the order of") &&
		(strings.Contains(lower, "court") || strings.Contains(lower, "authority")) {
		return LCensorship
	}

	// Blocking: parental control, ISP filters, security organizations,
	// sinkholes.
	if strings.Contains(lower, "has been blocked") ||
		strings.Contains(lower, "sinkhole") ||
		strings.Contains(lower, "parental") ||
		strings.Contains(lower, "threat protection") ||
		strings.Contains(lower, "web guard") {
		return LBlocking
	}

	// HTTP errors: status codes and the default/error page family.
	if status >= 400 {
		return LHTTPError
	}
	for _, marker := range []string{"not found", "forbidden", "bad request", "internal server error", "bad gateway"} {
		if strings.Contains(title, marker) {
			return LHTTPError
		}
	}
	if strings.Contains(lower, "it works!") ||
		strings.Contains(lower, "invalid hostname") ||
		strings.Contains(lower, "no site is configured") ||
		strings.Contains(lower, "default web page") {
		return LHTTPError
	}

	// Parking: resellers and monetized placeholder pages.
	if strings.Contains(lower, "is parked") ||
		strings.Contains(lower, "domain is for sale") ||
		strings.Contains(lower, "buy this domain") {
		return LParking
	}

	// Search: NX monetization and search mimicries.
	if strings.Contains(lower, "did you mean") ||
		strings.Contains(title, "search results") ||
		(hasSearchForm(f) && strings.Contains(lower, "sponsored result")) {
		return LSearch
	}

	// Login: captive portals, router logins, webmail sign-ins.
	if hasPasswordInput(body) &&
		(strings.Contains(title, "login") || strings.Contains(title, "sign-in") ||
			strings.Contains(lower, "sign in") || strings.Contains(lower, "portal") ||
			strings.Contains(lower, "administrator password")) {
		return LLogin
	}

	return LMisc
}

func hasPasswordInput(body string) bool {
	return strings.Contains(body, "type=\"password\"")
}

func hasSearchForm(f *htmlx.Features) bool {
	for _, tag := range f.TagSeq {
		if tag == "form" {
			return true
		}
	}
	return false
}
