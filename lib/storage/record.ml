let check_key key =
  let n = String.length key in
  if n = 0 || n > 255 then invalid_arg "Record: key must be 1..255 bytes"

let encode ~key ~value =
  check_key key;
  let klen = String.length key in
  let buf = Bytes.create (2 + klen + 8) in
  Bytes.set_uint16_be buf 0 klen;
  Bytes.blit_string key 0 buf 2 klen;
  Bytes.set_int64_be buf (2 + klen) (Int64.of_int value);
  buf

let decode payload =
  if Bytes.length payload < 10 then invalid_arg "Record.decode: too short";
  let klen = Bytes.get_uint16_be payload 0 in
  if Bytes.length payload <> 2 + klen + 8 then invalid_arg "Record.decode: bad length";
  let key = Bytes.sub_string payload 2 klen in
  let value = Int64.to_int (Bytes.get_int64_be payload (2 + klen)) in
  (key, value)
