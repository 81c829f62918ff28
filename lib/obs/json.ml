(* Minimal JSON values: just enough to render and re-parse the flat
   objects the observability exporters emit.  Kept dependency-free on
   purpose — the container has no JSON library baked in and the event
   schema never needs more than scalars, objects and arrays. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.12g" v

let rec write buffer = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float v -> Buffer.add_string buffer (float_repr v)
  | String s -> escape buffer s
  | List items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buffer ',';
          write buffer item)
        items;
      Buffer.add_char buffer ']'
  | Obj fields ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buffer ',';
          escape buffer key;
          Buffer.add_char buffer ':';
          write buffer value)
        fields;
      Buffer.add_char buffer '}'

let to_string v =
  let buffer = Buffer.create 128 in
  write buffer v;
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent)                                         *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail cursor message =
  raise (Parse_error (Printf.sprintf "%s at offset %d" message cursor.pos))

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | Some _ | None -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some _ | None -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected '%s'" word)

let parse_string c =
  expect c '"';
  let buffer = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char buffer '\n'; loop ()
        | Some 't' -> advance c; Buffer.add_char buffer '\t'; loop ()
        | Some 'r' -> advance c; Buffer.add_char buffer '\r'; loop ()
        | Some 'b' -> advance c; Buffer.add_char buffer '\b'; loop ()
        | Some 'f' -> advance c; Buffer.add_char buffer '\012'; loop ()
        | Some ('"' | '\\' | '/') ->
            Buffer.add_char buffer c.text.[c.pos];
            advance c;
            loop ()
        | Some 'u' ->
            advance c;
            (* Exactly four hex digits: no sign, no underscores. *)
            let hex () =
              match peek c with
              | Some ('0' .. '9' as d) -> advance c; Char.code d - 48
              | Some ('a' .. 'f' as d) -> advance c; Char.code d - 87
              | Some ('A' .. 'F' as d) -> advance c; Char.code d - 55
              | Some _ | None -> fail c "bad \\u escape"
            in
            let code = ref 0 in
            for _ = 1 to 4 do
              code := (!code lsl 4) lor hex ()
            done;
            let code = !code in
            (* Only BMP code points below 0x80 round-trip exactly; the
               exporters never emit anything else. *)
            if code < 0x80 then Buffer.add_char buffer (Char.chr code)
            else Buffer.add_string buffer (Printf.sprintf "\\u%04x" code);
            loop ()
        | Some _ | None -> fail c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char buffer ch;
        loop ()
  in
  loop ();
  Buffer.contents buffer

let parse_number c =
  let start = c.pos in
  let is_number_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_number_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.text start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail c "malformed number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> String (parse_string c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let value = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((key, value) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((key, value) :: acc)
          | Some _ | None -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let value = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (value :: acc)
          | Some ']' ->
              advance c;
              List.rev (value :: acc)
          | Some _ | None -> fail c "expected ',' or ']'"
        in
        List (items [])
      end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character '%c'" ch)

let of_string s =
  let c = { text = s; pos = 0 } in
  match parse_value c with
  | value ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage"
      else Ok value
  | exception Parse_error message -> Error message

(* Accessors for flat decoding. *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
