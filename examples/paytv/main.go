// Pay-TV scenario: the survey's Figure 1 end to end. A software editor
// sells a conditional-access module to be run on a "secure" set-top-box
// processor. The session key crosses a public network wrapped under the
// chip's public key; the software crosses it ciphered under the session
// key; the processor installs it into external memory re-ciphered by its
// bus-encryption engine — and neither the network eavesdropper nor the
// board-level bus probe ever sees a plaintext byte.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/keyexchange"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// spy is the network eavesdropper.
type spy struct{ captured []byte }

func (s *spy) Intercept(m keyexchange.Message) { s.captured = append(s.captured, m.Body...) }

func main() {
	// The editor's product: a conditional-access module.
	camSoftware := append([]byte("PAY-TV CAM v3 entitlements=SPORTS|MOVIES key-ladder-root=0xDEADBEEF "),
		compress.SyntheticProgram(8<<10, 2005)...)

	// --- Act 1: delivery over the open network (Figure 1). ---
	channel := &keyexchange.Channel{}
	networkSpy := &spy{}
	channel.Tap(networkSpy)

	manufacturer := keyexchange.NewManufacturer(42, 512)
	processor, err := manufacturer.Provision("STB-2005-0001")
	if err != nil {
		log.Fatal(err)
	}
	editor := keyexchange.NewEditor(7, camSoftware)

	installedImage, err := keyexchange.Run(channel, manufacturer, editor, processor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[network] %d messages crossed the open channel\n", len(channel.Log()))
	fmt.Printf("[network] eavesdropper captured %d bytes; CAM plaintext visible: %v\n",
		len(networkSpy.captured), bytes.Contains(networkSpy.captured, camSoftware[:16]))
	fmt.Printf("[processor] recovered the CAM image intact: %v\n",
		bytes.Equal(installedImage, camSoftware))

	// --- Act 2: execution behind the bus engine (Figure 2c). ---
	entry := core.MustEntry("aegis")
	engine, err := entry.Build()
	if err != nil {
		log.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Engine = engine
	stb, err := soc.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Step 6 of the protocol: install into external memory through the
	// bus engine.
	if err := stb.LoadImage(0, installedImage); err != nil {
		log.Fatal(err)
	}

	busProbe := &attack.Probe{}
	stb.Bus().Attach(busProbe)
	rep := stb.Run(trace.SequentialSource(trace.Config{
		Refs: 40000, Seed: 9, LoadFraction: 0.3, WriteFraction: 0.2,
		Locality: 0.7, CodeSize: uint64(len(installedImage)) &^ 31,
	}))

	fmt.Printf("[set-top box] ran %d refs, CPI %.2f\n", rep.Refs, rep.CPI())
	fmt.Printf("[bus probe] captured %d bytes on the processor-memory bus\n", len(busProbe.Data()))
	fmt.Printf("[bus probe] CAM plaintext visible on the bus: %v\n",
		busProbe.ContainsPlaintext(camSoftware[:16]))
	fmt.Printf("[dram chip] CAM plaintext visible in desoldered memory: %v\n",
		bytes.Contains(stb.DRAM().Dump(0, len(installedImage)), camSoftware[:16]))
	fmt.Printf("[cpu] CAM readable from inside the trusted area: %v\n",
		bytes.Equal(stb.ReadPlain(0, len(camSoftware)), camSoftware))
}
