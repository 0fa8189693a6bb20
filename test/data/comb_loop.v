// A combinational loop: y = a & w, w = ~y.  The frontend elaborates it,
// but no flow can map it to an AIG; `smartly serve` must answer such a
// job with an error and keep serving.
module comb_loop(input a, output y);
  wire w;
  assign y = a & w;
  assign w = ~y;
endmodule
