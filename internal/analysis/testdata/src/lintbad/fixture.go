// Fixture for suppression auditing: a marker with no reason must not
// suppress anything and must itself be reported, and so must a marker
// that covers no finding of its pass.
package lintbad

import "errors"

func mayFail() error { return errors.New("boom") }

func g() {
	//lint:ignore errdrop
	_ = mayFail()
}

func h() error {
	//lint:ignore errdrop fixture: the error is returned, not dropped
	return mayFail()
}
