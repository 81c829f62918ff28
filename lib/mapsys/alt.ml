type usage = { mutable requests : int; mutable hops_total : int }

type t = {
  domains : int;
  fanout : int;
  hop_latency : float;
  depth : int;
  usage : usage;
}

let create ~domains ?(fanout = 2) ?(hop_latency = 0.020) () =
  if domains <= 0 then invalid_arg "Alt.create: domains must be positive";
  if fanout < 2 then invalid_arg "Alt.create: fanout must be at least 2";
  if hop_latency <= 0.0 then invalid_arg "Alt.create: non-positive hop latency";
  let rec depth_for capacity d = if capacity >= domains then d else depth_for (capacity * fanout) (d + 1) in
  let depth = depth_for 1 0 in
  { domains; fanout; hop_latency; depth; usage = { requests = 0; hops_total = 0 } }

let depth t = t.depth
let usage t = t.usage

let check_leaf t i name =
  if i < 0 || i >= t.domains then
    invalid_arg (Printf.sprintf "Alt.%s: leaf %d out of range" name i)

(* Hops = 2 * (depth - depth of lowest common ancestor).  The LCA depth
   is the length of the common prefix of the two leaves' base-[fanout]
   digit strings, most significant digit first. *)
let request_hops t ~src ~dst =
  check_leaf t src "request_hops";
  check_leaf t dst "request_hops";
  if src = dst then 0
  else begin
    let digits leaf =
      let d = Array.make t.depth 0 in
      let rec fill i v =
        if i >= 0 then begin
          d.(i) <- v mod t.fanout;
          fill (i - 1) (v / t.fanout)
        end
      in
      fill (t.depth - 1) leaf;
      d
    in
    let a = digits src and b = digits dst in
    let rec common i = if i < t.depth && a.(i) = b.(i) then common (i + 1) else i in
    2 * (t.depth - common 0)
  end

let request_latency t ~src ~dst =
  float_of_int (request_hops t ~src ~dst) *. t.hop_latency

let mean_request_latency t =
  if t.domains < 2 then 0.0
  else begin
    let total = ref 0 in
    let pairs = ref 0 in
    for i = 0 to t.domains - 1 do
      for j = 0 to t.domains - 1 do
        if i <> j then begin
          total := !total + request_hops t ~src:i ~dst:j;
          incr pairs
        end
      done
    done;
    float_of_int !total /. float_of_int !pairs *. t.hop_latency
  end

let note_request t ~src ~dst =
  t.usage.requests <- t.usage.requests + 1;
  t.usage.hops_total <- t.usage.hops_total + request_hops t ~src ~dst
