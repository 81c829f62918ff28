(* The state is one int64 kept unboxed in an 8-byte buffer: a draw
   reads it, steps it and mixes it as raw 64-bit values, and only
   [int64] (whose result is an [int64]) and [float] (a [float]) box
   their result.  A [mutable state : int64] field would box every new
   state, and an out-of-line mix would box its argument and result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline always] mix64 z0 =
  let z1 = Int64.(mul (logxor z0 (shift_right_logical z0 30)) 0xBF58476D1CE4E5B9L) in
  let z2 = Int64.(mul (logxor z1 (shift_right_logical z1 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z2 (shift_right_logical z2 31))

(* Advance the state and return the next raw output. *)
let[@inline always] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))
let copy = Bytes.copy
let int64 t = next t
let split t = of_state (mix64 (next t))

let[@inline] float t =
  (* 53 significant bits, uniform in [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (next t) 11)
  *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on 63-bit draws to avoid modulo bias: accept
     raw <= limit where limit + 1 is the largest multiple of [bound]
     not exceeding 2^63.  A loop, not a local recursive function, so
     that no closure captures the boxed bounds. *)
  let bound64 = Int64.of_int bound in
  let rem =
    Int64.rem (Int64.add (Int64.rem Int64.max_int bound64) 1L) bound64
  in
  let limit = Int64.sub Int64.max_int rem in
  let raw = ref (Int64.shift_right_logical (next t) 1) in
  while Int64.compare !raw limit > 0 do
    raw := Int64.shift_right_logical (next t) 1
  done;
  Int64.to_int (Int64.rem !raw bound64)

let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t ~p = float t < p

let exponential t ~mean =
  assert (mean > 0.0);
  let u = 1.0 -. float t in
  -.mean *. log u

let pareto t ~shape ~scale =
  assert (shape > 0.0 && scale > 0.0);
  let u = 1.0 -. float t in
  scale /. (u ** (1.0 /. shape))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

module Zipf = struct
  (* Walker's alias method (Vose's construction): the table costs O(n)
     to build like the old cumulative array, but each draw is O(1)
     instead of an O(log n) bisection — the workload generator draws one
     destination per flow, millions of times in the scale experiments. *)
  type dist = { masses : float array; prob : float array; alias : int array }

  let create ~n ~alpha =
    if n <= 0 then invalid_arg "Rng.Zipf.create: n must be positive";
    if alpha < 0.0 then invalid_arg "Rng.Zipf.create: alpha must be >= 0";
    let masses = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** alpha)) in
    let total = Array.fold_left ( +. ) 0.0 masses in
    let masses = Array.map (fun m -> m /. total) masses in
    let prob = Array.make n 0.0 in
    let alias = Array.init n (fun i -> i) in
    let scaled = Array.map (fun m -> m *. float_of_int n) masses in
    (* Worklists of under- and over-full columns, kept as stacks. *)
    let small = Array.make n 0 and large = Array.make n 0 in
    let ns = ref 0 and nl = ref 0 in
    Array.iteri
      (fun i s ->
        if s < 1.0 then begin
          small.(!ns) <- i;
          incr ns
        end
        else begin
          large.(!nl) <- i;
          incr nl
        end)
      scaled;
    while !ns > 0 && !nl > 0 do
      decr ns;
      let l = small.(!ns) in
      decr nl;
      let g = large.(!nl) in
      prob.(l) <- scaled.(l);
      alias.(l) <- g;
      scaled.(g) <- scaled.(g) +. scaled.(l) -. 1.0;
      if scaled.(g) < 1.0 then begin
        small.(!ns) <- g;
        incr ns
      end
      else begin
        large.(!nl) <- g;
        incr nl
      end
    done;
    (* Leftovers are exactly full up to rounding error. *)
    while !nl > 0 do
      decr nl;
      prob.(large.(!nl)) <- 1.0
    done;
    while !ns > 0 do
      decr ns;
      prob.(small.(!ns)) <- 1.0
    done;
    { masses; prob; alias }

  let support d = Array.length d.masses
  let probability d k = d.masses.(k)

  let sample d t =
    let n = Array.length d.prob in
    (* One uniform draw selects both the column and the coin flip. *)
    let u = float t *. float_of_int n in
    let i = int_of_float u in
    let i = if i >= n then n - 1 else i in
    if u -. float_of_int i < d.prob.(i) then i else d.alias.(i)
end
