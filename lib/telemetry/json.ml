(* Minimal JSON for the telemetry subsystem and the repo's reports.

   Two halves, both dependency-free:

   - string-building combinators ([str], [arr], [obj], …), the one
     emitter every report in the tree is built with;
   - a small recursive-descent parser ([of_string], and
     [of_string_seq] for the diagnosis journal's log of values) with
     accessors, for consumers of our own artifacts: the perf-regression
     gate compares two bench JSON files, and the tests check Chrome
     traces for well-formedness by parsing them back. *)

(* --- emission ----------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = "\"" ^ escape s ^ "\""

let arr items = "[" ^ String.concat "," items ^ "]"

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
  ^ "}"

let str_list ss = arr (List.map str ss)

let bool b = if b then "true" else "false"

let int = string_of_int

let float f = Printf.sprintf "%.4f" f

(* --- parsed values ------------------------------------------------------ *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let rec render = function
  | Null -> "null"
  | Bool b -> bool b
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.6g" f
  | Str s -> str s
  | Arr xs -> arr (List.map render xs)
  | Obj kvs -> obj (List.map (fun (k, v) -> (k, render v)) kvs)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

(* --- parsing ------------------------------------------------------------ *)

exception Malformed of string * int

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Malformed (msg, c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %c" ch)

(* Every error raised for input that ends too soon sits at the end of
   the input, so [of_string_seq] can tell a cut-off value from a bad
   one by the error's offset alone. *)
let literal c word value =
  String.iter
    (fun ch ->
      if peek c = Some ch then advance c else fail c ("expected " ^ word))
    word;
  value

(* Encode a decoded \uXXXX code point as UTF-8 (surrogate pairs are not
   recombined — trace content is ASCII in practice). *)
let add_code_point b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then (
    Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f))))
  else (
    Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f))))

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> fail c "unterminated escape"
      | Some esc ->
        advance c;
        (match esc with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.src then (
            c.pos <- String.length c.src;
            fail c "short \\u escape");
          let hex = String.sub c.src c.pos 4 in
          c.pos <- c.pos + 4;
          let cp =
            try int_of_string ("0x" ^ hex)
            with _ -> fail c "bad \\u escape"
          in
          add_code_point b cp
        | _ -> fail c "unknown escape");
        go ())
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when num_char ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  if c.pos = start then fail c "expected a value";
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail c ("bad number " ^ s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then (
      advance c;
      Obj [])
    else
      let rec fields acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance c;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail c "expected , or } in object"
      in
      fields []
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then (
      advance c;
      Arr [])
    else
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          Arr (List.rev (v :: acc))
        | _ -> fail c "expected , or ] in array"
      in
      items []
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let error_at msg pos = Error (Printf.sprintf "%s at offset %d" msg pos)

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then error_at "trailing garbage" c.pos
    else Ok v
  | exception Malformed (msg, pos) -> error_at msg pos

(* A write-ahead log: values back to back.  A value cut off by the end
   of the input after at least one complete value is the torn last
   append of a killed writer, and is dropped. *)
let of_string_seq s =
  let c = { src = s; pos = 0 } in
  let len = String.length s in
  let rec values first acc =
    skip_ws c;
    if c.pos >= len then Ok (first, List.rev acc)
    else
      match parse_value c with
      | v -> values first (v :: acc)
      | exception Malformed (_, pos) when pos >= len ->
        Ok (first, List.rev acc)
      | exception Malformed (msg, pos) -> error_at msg pos
  in
  match parse_value c with
  | first -> values first []
  | exception Malformed (msg, pos) -> error_at msg pos
