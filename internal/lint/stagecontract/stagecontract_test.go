package stagecontract_test

import (
	"testing"

	"genax/internal/lint/analysistest"
	"genax/internal/lint/stagecontract"
)

func TestStageContract(t *testing.T) {
	// The contract applies inside genax/internal/core and
	// genax/internal/serve and nowhere else: otherpkg holds the same
	// shapes with no expectations.
	analysistest.Run(t, analysistest.TestData(), stagecontract.Analyzer,
		"genax/internal/core", "genax/internal/serve", "otherpkg")
}
