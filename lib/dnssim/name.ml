type t = string list (* most specific label first; [] is the root *)

let root = []

let of_string s =
  if s = "" || s = "." then []
  else begin
    let s =
      if String.length s > 0 && s.[String.length s - 1] = '.' then
        String.sub s 0 (String.length s - 1)
      else s
    in
    let labels = String.split_on_char '.' s in
    List.iter
      (fun l -> if l = "" then invalid_arg ("Name.of_string: empty label in " ^ s))
      labels;
    labels
  end

let to_string = function
  | [] -> "."
  | labels -> String.concat "." labels ^ "."

let label_count = List.length

let parent = function [] -> None | _ :: rest -> Some rest

let rec is_suffix ~suffix name =
  if List.length suffix > List.length name then false
  else if List.length suffix = List.length name then suffix = name
  else match name with [] -> false | _ :: rest -> is_suffix ~suffix rest

let in_zone t ~zone = is_suffix ~suffix:zone t

let suffix t k =
  let n = List.length t in
  if k < 0 || k > n then invalid_arg "Name.suffix: label count exceeded";
  let rec drop i l = if i = 0 then l else drop (i - 1) (List.tl l) in
  drop (n - k) t

let equal a b = a = b
let compare = Stdlib.compare
let hash t = Hashtbl.hash t

let wire_size t =
  1 + List.fold_left (fun acc l -> acc + 1 + String.length l) 0 t
