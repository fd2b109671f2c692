(* Self-delimiting key fields; see key.mli. *)

let int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ','

let string b s =
  int b (String.length s);
  Buffer.add_string b s

let iid b { Access.Iid.tid; label; occ } =
  int b tid;
  string b label;
  int b occ

let addr b (a : Addr.t) =
  match a with
  | Global g ->
    Buffer.add_char b 'g';
    string b g
  | Field (o, f) ->
    Buffer.add_char b 'f';
    int b o;
    string b f
  | Index (o, i) ->
    Buffer.add_char b 'i';
    int b o;
    int b i
  | Whole o ->
    Buffer.add_char b 'w';
    int b o
