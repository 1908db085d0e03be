package mem

// TLBSlot exposes tlbSlot to the package's external tests.
var TLBSlot = tlbSlot
